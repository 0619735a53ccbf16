package epsflow

import (
	"path/filepath"
	"testing"

	"dpbench/internal/analysis/analysistest"
)

// TestEpsflow drives the analyzer over the fixture mechanisms: an exact-sum
// pass, an over-spend, an under-spend on an early-return path, a
// branch-asymmetric spend, an open loop closed by //dp:spends, and a wrong
// //dp:spends annotation being rejected.
func TestEpsflow(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "a"), "dpbench/internal/algo")
}

// TestBudgetLabel drives the ledger-label rule: undeclared constants in a
// mechanism method, in its plan type and two construction hops away;
// another mechanism's label; an undeclared labelTable family; non-constant
// labels, directly and forwarded; constants forwarded through one helper and
// through two; an exported forwarder; and spends no mechanism reaches.
func TestBudgetLabel(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "labels"), "dpbench/internal/algo")
}

// TestOpenPlan pins the conservative path: a mechanism whose plan is built
// dynamically cannot be checked statically, so its labels are not flagged.
func TestOpenPlan(t *testing.T) {
	t.Parallel()
	analysistest.Run(t, Analyzer, filepath.Join("testdata", "src", "openplan"), "dpbench/internal/algo")
}
