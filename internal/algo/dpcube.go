package algo

import (
	"math/rand"
	"sync"

	"dpbench/internal/noise"
	"dpbench/internal/tree"
	"dpbench/internal/vec"
	"dpbench/internal/workload"
)

// DPCube is the multidimensional partitioning algorithm of Xiao et al.
// (Transactions on Data Privacy 2014). It first obtains noisy counts for
// every cell with a rho fraction of the budget, builds a kd-tree over the
// noisy counts (splitting along the wider dimension at the noisy-mass
// median until partitions are nearly uniform or smaller than MinCells),
// obtains fresh noisy counts for the partitions with the remaining budget,
// and combines the two estimates per cell by precision weighting.
type DPCube struct {
	// Rho is the budget fraction for the initial cell counts (paper: 0.5).
	Rho float64
	// MinCells stops kd-tree splits below this partition size (paper's
	// n_p = 10).
	MinCells int
}

func init() { Register("DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }) }

// Name implements Algorithm.
func (d *DPCube) Name() string { return "DPCUBE" }

// Supports implements Algorithm.
func (d *DPCube) Supports(k int) bool { return k == 1 || k == 2 }

// DataDependent implements Algorithm.
func (d *DPCube) DataDependent() bool { return true }

// Run implements Algorithm.
func (d *DPCube) Run(x *vec.Vector, w *workload.Workload, eps float64, rng *rand.Rand) ([]float64, error) {
	return runPlan(d, x, w, eps, rng)
}

// RunMeter implements Metered: the initial per-cell histogram is one vector
// query at rho*eps; the kd-tree is post-processing; the fresh partition
// counts are disjoint and compose in parallel to the remaining (1-rho)*eps.
func (d *DPCube) RunMeter(x *vec.Vector, w *workload.Workload, m *noise.Meter) ([]float64, error) {
	return runPlanMeter(d, x, w, m)
}

// dpcubePlan resolves the parameters once; the kd-tree is re-derived from
// each trial's fresh noisy histogram (that is the mechanism), with the
// histogram and partition buffers recycled across trials.
type dpcubePlan struct {
	data       []float64
	dims       []int
	n          int
	minCells   int
	eps1, eps2 float64
	bufs       sync.Pool // *dpcubeScratch
}

// dpcubeScratch is one trial's noisy histogram plus its kd partitions: in 1D
// as boundaries (1D partitions are contiguous intervals), in 2D as leaf
// rectangles, whose cells are visited in row-major order. vals and marg are
// the 2D split's per-region working buffers; each is consumed before the
// recursion descends, so one of each serves the whole split.
type dpcubeScratch struct {
	noisy  []float64
	bounds []int
	rects  []tree.Rect
	vals   []float64
	marg   []float64
}

// Plan implements Algorithm.
func (d *DPCube) Plan(x *vec.Vector, _ *workload.Workload, eps float64) (Plan, error) {
	if err := validate(x, eps); err != nil {
		return nil, err
	}
	rho := d.Rho
	if rho <= 0 || rho >= 1 {
		rho = 0.5
	}
	minCells := d.MinCells
	if minCells < 1 {
		minCells = 10
	}
	p := &dpcubePlan{
		data: x.Data, dims: x.Dims, n: x.N(), minCells: minCells,
		eps1: rho * eps, eps2: (1 - rho) * eps,
	}
	p.bufs.New = func() any {
		sc := &dpcubeScratch{noisy: make([]float64, p.n), bounds: make([]int, 0, 64)}
		if len(p.dims) == 2 {
			sc.rects = make([]tree.Rect, 0, 64)
			sc.vals = make([]float64, 0, p.n)
			sc.marg = make([]float64, max(p.dims[0], p.dims[1]))
		}
		return sc
	}
	return p, nil
}

//dp:hotpath
func (p *dpcubePlan) Execute(m *noise.Meter, out []float64) error {
	sc := p.bufs.Get().(*dpcubeScratch)
	defer p.bufs.Put(sc)
	noisy := m.LaplaceVecInto("counts", sc.noisy, p.data, 1/p.eps1, p.eps1)
	cellVar := 2 / (p.eps1 * p.eps1)

	// kd-tree over the noisy counts (pure post-processing of DP output),
	// then fresh counts for the partitions and a precision-weighted merge
	// with the per-cell noisy estimates. Partition estimates spread
	// uniformly carry variance 2/(eps2^2 * |p|^2) per cell (ignoring
	// uniformity bias); per-cell estimates carry 2/eps1^2.
	if len(p.dims) == 1 {
		bounds := append(sc.bounds[:0], 0)
		bounds = kdSplit1DBounds(noisy, 0, p.n, p.minCells, 1/p.eps1, bounds)
		sc.bounds = bounds
		for b := 0; b+1 < len(bounds); b++ {
			lo, hi := bounds[b], bounds[b+1]
			var trueTotal float64
			for cell := lo; cell < hi; cell++ {
				trueTotal += p.data[cell]
			}
			est := trueTotal + m.LaplacePar("parts", 1/p.eps2, p.eps2)
			size := float64(hi - lo)
			partPerCell := est / size
			partVar := 2 / (p.eps2 * p.eps2 * size * size)
			wPart := cellVar / (cellVar + partVar)
			for cell := lo; cell < hi; cell++ {
				out[cell] = wPart*partPerCell + (1-wPart)*noisy[cell]
			}
		}
		return m.Err()
	}

	nx := p.dims[1]
	sc.rects = sc.kdSplit2D(noisy, nx, tree.Rect{X1: nx, Y1: p.dims[0]}, p.minCells, 1/p.eps1, sc.rects[:0])
	for _, r := range sc.rects {
		var trueTotal float64
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				trueTotal += p.data[y*nx+x]
			}
		}
		est := trueTotal + m.LaplacePar("parts", 1/p.eps2, p.eps2)
		size := float64((r.X1 - r.X0) * (r.Y1 - r.Y0))
		partPerCell := est / size
		partVar := 2 / (p.eps2 * p.eps2 * size * size)
		wPart := cellVar / (cellVar + partVar)
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				out[y*nx+x] = wPart*partPerCell + (1-wPart)*noisy[y*nx+x]
			}
		}
	}
	return m.Err()
}

// CompositionPlan implements Planner.
func (d *DPCube) CompositionPlan() noise.Plan {
	return noise.Plan{
		{Label: "counts", Kind: noise.Sequential},
		{Label: "parts", Kind: noise.Parallel},
	}
}

// kdSplit1DBounds recursively partitions [lo, hi) of the noisy histogram,
// splitting at the mass median while the interval looks non-uniform relative
// to the noise level. Partitions are contiguous, so they are returned as
// ascending boundary offsets appended to bounds (the caller seeds it with
// lo); the leaf order matches the left-to-right recursion.
func kdSplit1DBounds(noisy []float64, lo, hi, minCells int, noiseUnit float64, bounds []int) []int {
	if hi-lo <= 1 || stopSplitting(noisy[lo:hi], minCells, noiseUnit) {
		return append(bounds, hi)
	}
	mid := massMedian(noisy, lo, hi)
	if mid <= lo || mid >= hi {
		mid = (lo + hi) / 2
	}
	bounds = kdSplit1DBounds(noisy, lo, mid, minCells, noiseUnit, bounds)
	return kdSplit1DBounds(noisy, mid, hi, minCells, noiseUnit, bounds)
}

// kdSplit2D partitions region r of the noisy nx-wide histogram like
// kdSplit1DBounds, splitting the wider dimension at its marginal-mass
// median, and appends the leaf rectangles to rects in left-to-right
// recursion order.
func (sc *dpcubeScratch) kdSplit2D(noisy []float64, nx int, r tree.Rect, minCells int, noiseUnit float64, rects []tree.Rect) []tree.Rect {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w*h <= 1 {
		return append(rects, r)
	}
	vals := sc.vals[:0]
	for y := r.Y0; y < r.Y1; y++ {
		vals = append(vals, noisy[y*nx+r.X0:y*nx+r.X1]...)
	}
	if stopSplitting(vals, minCells, noiseUnit) {
		return append(rects, r)
	}
	// More than one cell, so the wider dimension has at least two.
	overX := w >= h
	a, b := splitAtMedian(r, regionMarginal(sc.marg, noisy, nx, r, overX), overX)
	rects = sc.kdSplit2D(noisy, nx, a, minCells, noiseUnit, rects)
	return sc.kdSplit2D(noisy, nx, b, minCells, noiseUnit, rects)
}

// regionMarginal writes into dst, and returns, the marginal of rectangle r
// of the nx-wide grid data: per-column sums when overX, per-row sums
// otherwise. Every bin adds its cells in row-major order.
func regionMarginal(dst, data []float64, nx int, r tree.Rect, overX bool) []float64 {
	n := r.Y1 - r.Y0
	if overX {
		n = r.X1 - r.X0
	}
	marg := dst[:n]
	clear(marg)
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			i := y - r.Y0
			if overX {
				i = x - r.X0
			}
			marg[i] += data[y*nx+x]
		}
	}
	return marg
}

// splitAtMedian cuts r in two at the mass median of marg, its marginal along
// x (overX) or y.
func splitAtMedian(r tree.Rect, marg []float64, overX bool) (a, b tree.Rect) {
	a, b = r, r
	if overX {
		cut := r.X0 + marginalMedian(marg)
		if cut <= r.X0 || cut >= r.X1 {
			cut = (r.X0 + r.X1) / 2
		}
		a.X1, b.X0 = cut, cut
	} else {
		cut := r.Y0 + marginalMedian(marg)
		if cut <= r.Y0 || cut >= r.Y1 {
			cut = (r.Y0 + r.Y1) / 2
		}
		a.Y1, b.Y0 = cut, cut
	}
	return a, b
}

// stopSplitting reports whether a partition should become a leaf: its value
// spread is small relative to the Laplace noise (so splitting cannot pay
// off), with a stricter bar below the MinCells size so small partitions only
// keep splitting when the non-uniformity clearly exceeds the noise floor. As
// the budget grows the noise unit vanishes and any real non-uniformity keeps
// splitting, which is what makes DPCube consistent (Theorem 3).
func stopSplitting(vals []float64, minCells int, noiseUnit float64) bool {
	if len(vals) <= 1 {
		return true
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	threshold := 4 * noiseUnit
	if len(vals) <= minCells {
		threshold = 8 * noiseUnit
	}
	return hi-lo <= threshold
}

// massMedian returns the index m in (lo, hi) splitting the positive mass of
// noisy[lo:hi] roughly in half.
func massMedian(noisy []float64, lo, hi int) int {
	var total float64
	for i := lo; i < hi; i++ {
		if noisy[i] > 0 {
			total += noisy[i]
		}
	}
	if total <= 0 {
		return (lo + hi) / 2
	}
	var run float64
	for i := lo; i < hi; i++ {
		if noisy[i] > 0 {
			run += noisy[i]
		}
		if run >= total/2 {
			return i + 1
		}
	}
	return (lo + hi) / 2
}

// marginalMedian returns the split offset (1..len-1) halving the positive
// mass of a marginal.
func marginalMedian(marg []float64) int {
	var total float64
	for _, v := range marg {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return len(marg) / 2
	}
	var run float64
	for i, v := range marg {
		if v > 0 {
			run += v
		}
		if run >= total/2 {
			if i+1 >= len(marg) {
				return len(marg) - 1
			}
			return i + 1
		}
	}
	return len(marg) / 2
}
