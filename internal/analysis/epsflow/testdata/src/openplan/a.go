// A dynamically built CompositionPlan opts its mechanism out of the static
// label check (the runtime audit still covers it); no want comments here.
package algo

import "dpbench/internal/noise"

// DynMech builds its plan through a helper, so epsflow treats it as open.
type DynMech struct{}

// CompositionPlan delegates, which the static check cannot see through.
func (d *DynMech) CompositionPlan() noise.Plan { return d.buildPlan() }

func (d *DynMech) buildPlan() noise.Plan {
	return noise.Plan{{Label: "computed", Kind: noise.Sequential}}
}

type dynPlan struct{ eps float64 }

// Plan implements the mechanism entry point.
func (d *DynMech) Plan(eps float64) (*dynPlan, error) { return &dynPlan{eps: eps}, nil }

// Execute spends under a label only the dynamic plan declares, and under
// one it does not.
func (p *dynPlan) Execute(m *noise.Meter, out []float64) error {
	m.Laplace("computed", 1, p.eps/2)
	m.Laplace("anything-goes", 1, p.eps/2)
	return m.Err()
}
