// Package budgetlabel is retired: epsflow checks every ledger label against
// its mechanism's CompositionPlan, and dpbench-lint no longer runs this pass.
// It remains, reporting nothing, only because the lint roster of
// cmd/perfbench still names it; delete the two together.
package budgetlabel

import "dpbench/internal/analysis"

// Analyzer is the retired pass: a no-op.
var Analyzer = &analysis.Analyzer{
	Name: "budgetlabel",
	Doc:  "retired: epsflow checks ledger labels against the CompositionPlan",
	Run:  func(*analysis.Pass) error { return nil },
}
