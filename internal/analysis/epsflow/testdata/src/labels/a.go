// Fixture for epsflow's ledger-label rule, type-checked under the import
// path dpbench/internal/algo so the rule applies. Every mechanism charges
// exactly its budget, so the only findings are label findings.
package algo

import "dpbench/internal/noise"

// GoodMech declares a plain label and a wildcard level family.
type GoodMech struct{}

// CompositionPlan declares the labels GoodMech may spend under.
func (g *GoodMech) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "scale", Kind: noise.Sequential},
		{Label: "level*", Kind: noise.Parallel},
	}
}

// goodPlan is GoodMech's plan: u is the amount each of Execute's 18 charges
// spends, the other fields are the inputs the label cases need.
type goodPlan struct {
	g      *GoodMech
	u      float64
	dyn    string
	labels []string
	depth  int
}

// Plan hands the trial to goodPlan, so everything goodPlan.Execute reaches
// is checked against GoodMech's plan.
func (g *GoodMech) Plan(eps float64, dyn string, labels []string, depth int) (*goodPlan, error) {
	return &goodPlan{g: g, u: eps / 18, dyn: dyn, labels: labels, depth: depth}, nil
}

// Execute spends from the plan type, one hop from GoodMech, and through
// every helper below.
func (p *goodPlan) Execute(m *noise.Meter, out []float64) error {
	p.g.RunMeter(m, p.u)
	m.Laplace("scale", 1, p.u) // declared: clean
	sub := m.SubEps("level1", p.u)
	sub.Laplace("inner", 1, p.u) // a sub-meter's own ledger is not matched against the plan: clean
	sub.Close()
	m.Laplace("other-only", 1, p.u) // want `label "other-only" is not declared in GoodMech's CompositionPlan`
	p.prepare().Spend(m, p.u)
	p.g.PerLevel(m, p.depth, p.u)
	p.g.Forwarding(m, p.dyn, p.u)
	p.g.DoubleForward(m, p.u)
	dynamicLabel(m, p.labels, p.depth, p.u)
	allowedDynamic(m, p.dyn, p.u)
	return m.Err()
}

// RunMeter spends directly from a mechanism method.
func (g *GoodMech) RunMeter(m *noise.Meter, u float64) {
	m.Laplace("scale", 1, u)     // declared: clean
	m.LaplacePar("level3", 1, u) // wildcard match: clean
	m.Charge("rogue", u)         // want `label "rogue" is not declared in GoodMech's CompositionPlan`
}

// OtherMech exists so a label declared in a *different* mechanism's plan is
// still a finding for code GoodMech reaches.
type OtherMech struct{}

// CompositionPlan declares OtherMech's only label.
func (o *OtherMech) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "other-only", Kind: noise.Sequential}}
}

type otherPlan struct{ eps float64 }

// Plan implements the mechanism entry point.
func (o *OtherMech) Plan(eps float64) (*otherPlan, error) { return &otherPlan{eps: eps}, nil }

// Execute spends through a helper that only OtherMech reaches.
func (p *otherPlan) Execute(m *noise.Meter, out []float64) error {
	helper(m, p.eps)
	return m.Err()
}

// helper is checked against the plans of the mechanisms that reach it.
func helper(m *noise.Meter, eps float64) {
	m.Laplace("other-only", 1, eps) // OtherMech's label: clean
}

// stray is reached by no mechanism, so its spend is a finding whatever its
// label.
func stray(m *noise.Meter) {
	m.Charge("nowhere", 1) // want `Meter.Charge is reached by no verified mechanism's Plan/Execute`
}

// scratch is constructed inside newScratch, which goodPlan calls: two hops
// from GoodMech.
type scratch struct{}

func newScratch() *scratch { return &scratch{} }

// prepare links goodPlan to newScratch.
func (p *goodPlan) prepare() *scratch { return newScratch() }

// Spend is reached through the construction chain.
func (s *scratch) Spend(m *noise.Meter, u float64) {
	m.Laplace("scale", 1, u) // two hops away: clean
	m.Laplace("stray", 1, u) // want `label "stray" is not declared in GoodMech's CompositionPlan`
}

// dynamicLabel must be rejected outright: the plan check cannot be static
// if the label is not.
func dynamicLabel(m *noise.Meter, labels []string, i int, u float64) {
	m.Laplace(labels[i], 1, u) // want `ledger label passed to Meter.Laplace must be a string constant`
}

// allowedDynamic shows the audited escape hatch for a computed label.
func allowedDynamic(m *noise.Meter, prefix string, u float64) {
	//lint:allow epsflow label set is validated by the runtime audit in this test-only path
	m.Laplace(prefix+"x", 1, u)
}

// Label tables: the depth-indexed wildcard idiom from internal/algo.
var (
	lvlLabels = labelTable("level", 8)
	badLabels = labelTable("bad", 4)
)

func labelTable(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + string(rune('0'+i))
	}
	return out
}

func idxLabel(table []string, i int) string {
	if i >= 0 && i < len(table) {
		return table[i]
	}
	return table[len(table)-1]
}

// PerLevel charges label-table families, including one through a local,
// which are checked against the plan's wildcards.
func (g *GoodMech) PerLevel(m *noise.Meter, depth int, u float64) {
	m.LaplacePar(idxLabel(lvlLabels, depth), 1, u) // covered by "level*": clean
	lab := idxLabel(lvlLabels, depth+1)
	m.LaplacePar(lab, 1, u)                 // same, via a local: clean
	m.Charge(idxLabel(badLabels, depth), u) // want `label family "bad\*" is not declared in GoodMech's CompositionPlan`
}

// spendVia forwards its label parameter to a spend: a constant is checked
// where it is chosen, in each caller's mechanism context, and a non-constant
// one where it is spent.
func spendVia(m *noise.Meter, label string, u float64) {
	m.Laplace(label, 1, u) // want `ledger label passed to Meter.Laplace must be a string constant`
}

// Forwarding is exported, so handing its own parameter to spendVia lets
// callers outside the package choose the label.
func (g *GoodMech) Forwarding(m *noise.Meter, dyn string, u float64) {
	spendVia(m, "scale", u)  // declared at the call site: clean
	spendVia(m, "rogue2", u) // want `label "rogue2" is not declared in GoodMech's CompositionPlan`
	spendVia(m, dyn, u)      // want `Forwarding is exported and forwards its parameter dyn to a ledger label`
}

// relayVia forwards through two hops; the constant is still checked where
// it is chosen.
func relayVia(m *noise.Meter, label string, u float64) {
	spendVia(m, label, u)
}

// DoubleForward forwards constants through two helpers.
func (g *GoodMech) DoubleForward(m *noise.Meter, u float64) {
	relayVia(m, "scale", u)  // clean through two hops
	relayVia(m, "rogue3", u) // want `label "rogue3" is not declared in GoodMech's CompositionPlan`
}

// ChargeAs is exported and spends under its caller's label.
func ChargeAs(m *noise.Meter, label string) {
	m.Charge(label, 1) // want `ChargeAs is exported and forwards its parameter label to a ledger label` `Meter.Charge is reached by no verified mechanism's Plan/Execute`
}
