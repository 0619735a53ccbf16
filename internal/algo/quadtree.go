package algo

import (
	"fmt"
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// QuadTree is the fixed-structure spatial decomposition of Cormode et al.
// (ICDE 2012): a quadtree of at most MaxHeight levels over the 2D grid,
// Laplace measurements on every node with geometric budget allocation, and
// consistency post-processing. Because the structure is fixed, no budget is
// spent selecting it (rho = 0). When the height cap truncates leaves above
// single cells, the uniformity assumption introduces bias, which is what
// makes QuadTree inconsistent on large domains (Theorem 5).
type QuadTree struct {
	// MaxHeight caps the number of tree levels (paper's c = 10).
	MaxHeight int
}

func init() { Register("QUADTREE", func() Algorithm { return &QuadTree{MaxHeight: 10} }) }

// Name implements Algorithm.
func (q *QuadTree) Name() string { return "QUADTREE" }

// Supports implements Algorithm; QuadTree is 2D only (Table 1).
func (q *QuadTree) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (q *QuadTree) DataDependent() bool { return true }

// Run implements Algorithm.
func (q *QuadTree) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(q, x, w, eps, rng)
}

// RunMeter implements Metered: geometric per-level budgets summing to eps,
// each level a parallel scope over its disjoint nodes.
func (q *QuadTree) RunMeter(x *vec.Vector, w *workload.Workload, m *noise.Meter) ([]float64, error) {
	return runPlanMeter(q, x, w, m)
}

// Plan implements Algorithm: the quadtree layout is fixed per (grid, height),
// so the plan is a cached flat tree with the geometric budget.
func (q *QuadTree) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("quadtree: 2D only, got %dD", x.K())
	}
	h := q.MaxHeight
	if h < 1 {
		h = 10
	}
	flat, err := tree.SharedQuad(x.Dims[1], x.Dims[0], h)
	if err != nil {
		return nil, err
	}
	return newTreePlan(flat, x.Data, tree.GeometricLevelBudget(eps, flat.Height())), nil
}

// CompositionPlan implements Planner.
func (q *QuadTree) CompositionPlan() noise.Plan {
	return noise.Plan{{Label: "level*", Kind: noise.Parallel}}
}

// HybridTree is the kd-hybrid decomposition of Cormode et al. (ICDE 2012):
// the top KDLevels of the tree are chosen data-dependently by splitting at
// noisy medians (spending a small fraction of the budget), and a fixed
// quadtree fills in below until MaxHeight levels; node counts are then
// measured geometrically and made consistent, as with QuadTree.
type HybridTree struct {
	// KDLevels is the number of data-dependent top levels.
	KDLevels int
	// MaxHeight caps the total number of levels.
	MaxHeight int
	// StructRho is the budget fraction spent choosing the kd splits.
	StructRho float64
}

func init() {
	Register("HYBRIDTREE", func() Algorithm {
		return &HybridTree{KDLevels: 3, MaxHeight: 10, StructRho: 0.1}
	})
}

// Name implements Algorithm.
func (t *HybridTree) Name() string { return "HYBRIDTREE" }

// Supports implements Algorithm.
func (t *HybridTree) Supports(k int) bool { return k == 2 }

// DataDependent implements Algorithm.
func (t *HybridTree) DataDependent() bool { return true }

// Run implements Algorithm.
func (t *HybridTree) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(t, x, w, eps, rng)
}

// RunMeter implements Metered: each kd level's marginals run over disjoint
// regions (one parallel scope of epsStruct/kd per level, labels "kd<d>"),
// then the fixed-structure counts follow QuadTree's geometric per-level
// scopes at the remaining budget.
func (t *HybridTree) RunMeter(x *vec.Vector, w *workload.Workload, m *noise.Meter) ([]float64, error) {
	return runPlanMeter(t, x, w, m)
}

// hybridPlan carries the resolved parameters; the kd structure itself is
// selected from fresh noise inside every Execute, as the mechanism requires,
// into a pooled tree arena.
type hybridPlan struct {
	t                  *HybridTree
	data               []float64
	nx, ny             int
	kd, h              int
	perLevel, epsCount float64
	bufs               sync.Pool // *hybridScratch
}

// hybridScratch is one trial's kd+quad tree arena, its inference scratch and
// the kd levels' marginal buffer (each marginal is consumed before the
// recursion descends, so one buffer serves the whole tree).
type hybridScratch struct {
	f    tree.Flat
	sc   *tree.Scratch
	marg []float64
}

// Plan implements Algorithm. HybridTree's upper levels are data-dependent
// (noisy-median splits), so only the parameter resolution and budget split
// are hoisted; each trial builds and measures its own tree.
func (t *HybridTree) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	if x.K() != 2 {
		return nil, fmt.Errorf("hybridtree: 2D only, got %dD", x.K())
	}
	kd := t.KDLevels
	if kd < 0 {
		kd = 3
	}
	h := t.MaxHeight
	if h < kd+1 {
		h = kd + 1
	}
	rho := t.StructRho
	if rho <= 0 || rho >= 1 {
		rho = 0.1
	}
	epsStruct := rho * eps
	epsCount := (1 - rho) * eps
	if kd == 0 {
		// Budget fix: with no data-dependent levels there is no structure to
		// select, so the struct allocation would be silently wasted — give
		// the whole budget to the counts instead.
		epsStruct, epsCount = 0, eps
	}
	p := &hybridPlan{
		t: t, data: x.Data, nx: x.Dims[1], ny: x.Dims[0], kd: kd, h: h,
		perLevel: epsStruct / float64(max(kd, 1)), epsCount: epsCount,
	}
	p.bufs.New = func() any {
		return &hybridScratch{sc: tree.NewScratch(), marg: make([]float64, max(p.nx, p.ny))}
	}
	return p, nil
}

//dp:hotpath
func (p *hybridPlan) Execute(m *noise.Meter, out []float64) error {
	hs := p.bufs.Get().(*hybridScratch)
	defer p.bufs.Put(hs)
	// Pin the pooled arena and scratch to locals for the whole
	// build→sums→measure→infer sequence: the raw node sums leave the scratch
	// only through MeasureInto's metered draws.
	f, sc := &hs.f, hs.sc
	// Noisy marginals drive the kd splits; each level of splits touches
	// disjoint regions so the levels share epsStruct evenly.
	f.Reset(p.nx * p.ny)
	p.t.buildKD(f, hs.marg, p.data, p.nx, tree.Rect{X1: p.nx, Y1: p.ny}, 0, p.kd, p.kd, p.h, p.perLevel, m)
	f.Seal()
	f.ComputeSums(p.data, sc)
	f.MeasureInto(m, sc, tree.GeometricLevelBudget(p.epsCount, f.Height()))
	f.InferInto(sc, out)
	return m.Err()
}

// CompositionPlan implements Planner.
func (t *HybridTree) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "kd*", Kind: noise.Parallel},
		{Label: "level*", Kind: noise.Parallel},
	}
}

// buildKD appends to f, at depth, kdLeft data-dependent levels splitting the
// longer dimension at a noisy mass median, then hands each region to a fixed
// quadtree of the remaining height. kdTotal is the configured number of kd
// levels, so the current kd depth is kdTotal-kdLeft. When a branch bottoms
// out early its remaining per-level allocations are charged as forfeits,
// keeping every kd scope at exactly epsLevel even if no region at that depth
// draws. It returns the index of the subtree's root.
//
// Sibling subtrees split disjoint regions, so their equal charges share the
// per-level parallel scopes rather than summing.
//
//dp:spends par float64(kdLeft) * epsLevel
func (t *HybridTree) buildKD(f *tree.Flat, marg, data []float64, nx int, r tree.Rect, depth, kdLeft, kdTotal, heightLeft int, epsLevel float64, m *noise.Meter) int32 {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if kdLeft == 0 || heightLeft <= 1 || (w == 1 && h == 1) {
		for i := 0; i < kdLeft; i++ {
			m.ChargePar(idxLabel(kdLabels, kdTotal-kdLeft+i), epsLevel)
		}
		return f.AddQuad(nx, r, depth, heightLeft)
	}
	// One parallel scope for the whole marginal: it is a vector query of
	// sensitivity 1 over the region, and the regions sharing a kd level are
	// disjoint, so the vectorized parallel draw charges eps once for all of a
	// level's bins.
	overX := w >= h
	vals := regionMarginal(marg, data, nx, r, overX)
	noisy := m.LaplaceVecParInto(idxLabel(kdLabels, kdTotal-kdLeft), vals, vals, 1/epsLevel, epsLevel)
	a, b := splitAtMedian(r, noisy, overX)
	i := f.AddBranch(nx, r, depth, 2)
	f.SetKid(i, 0, t.buildKD(f, marg, data, nx, a, depth+1, kdLeft-1, kdTotal, heightLeft-1, epsLevel, m))
	f.SetKid(i, 1, t.buildKD(f, marg, data, nx, b, depth+1, kdLeft-1, kdTotal, heightLeft-1, epsLevel, m))
	return i
}
