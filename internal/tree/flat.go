package tree

import (
	"fmt"
	"math"
	"sync"

	"dpbench/internal/noise"
)

// Flat is a flattened aggregation tree: pure structure (topology, depths,
// spans, leaf cell lists) with no per-trial state. A shared Flat, built once
// per shape by SharedInterval, SharedGrid or SharedQuad, is immutable and
// serves every sample, trial and worker that needs the same hierarchy; its
// per-trial values (measurements and the inference passes' intermediates)
// live in a Scratch drawn from the Flat's internal pool, which is what turns
// the tree mechanisms' per-trial cost from "rebuild the whole structure" into
// "draw the noise". A Flat rebuilt per trial (RebuildInterval, or Reset plus
// the Add* builders for HybridTree's data-dependent kd levels) reuses its own
// arrays instead and is single-owner.
//
// Nodes are stored in pre-order (a node before its subtree, subtrees in
// child order), so MeasureInto draws a node's noise after its ancestors' and
// its earlier siblings' subtrees'. Children keep their construction order,
// which fixes the association of every floating-point reduction (true-count
// sums, the inference passes): the same tree yields bit-identical output.
type Flat struct {
	n      int // number of cells covered
	height int

	depth  []int32
	kidOff []int32 // children of node i: kids[kidOff[i]:kidOff[i+1]]
	kids   []int32
	celOff []int32 // leaf cells of node i: cells[celOff[i]:celOff[i+1]]
	cells  []int32
	spanLo []int32 // inclusive min/max covered flat cell index
	spanHi []int32

	pool sync.Pool // *Scratch
}

// Scratch holds one trial's per-node values for a Flat: the noisy
// measurements y and the working arrays of the two inference passes. Obtain
// one with Acquire and return it with Release; a Scratch is not safe for
// concurrent use, but distinct Scratches over the same Flat are.
type Scratch struct {
	buf  []float64 // backs all the arrays below
	sums []float64 // exact per-node totals of the trial's data vector
	y    []float64 // noisy measurements
	z    []float64 // combined estimate (upward), then target (downward)
	zvar []float64
	kSum []float64 // sum of children's z, in child order
	kVar []float64 // sum of children's zvar, in child order
	vars []float64 // per-level measurement variance (len height)
}

// NewScratch returns an empty standalone Scratch that grows on demand. It is
// the companion of a rebuilt Flat: its node count changes per rebuild, so its
// owner holds one auto-sizing scratch instead of drawing from a fixed-size
// pool.
func NewScratch() *Scratch { return &Scratch{} }

// ensure sizes the scratch for nodes and height, growing buf if needed.
func (sc *Scratch) ensure(nodes, height int) {
	if need := 6*nodes + height; cap(sc.buf) < need {
		sc.buf = make([]float64, need)
	}
	b := sc.buf
	sc.sums, b = b[:nodes], b[nodes:]
	sc.y, b = b[:nodes], b[nodes:]
	sc.z, b = b[:nodes], b[nodes:]
	sc.zvar, b = b[:nodes], b[nodes:]
	sc.kSum, b = b[:nodes], b[nodes:]
	sc.kVar, b = b[:nodes], b[nodes:]
	sc.vars = b[:height]
}

// --- builders ---
//
// Every shape is built in pre-order into f's arrays: a node is appended with
// its child slots reserved, then each child subtree is appended and its root
// recorded in the parent's next slot. Builders are methods, not closures, so
// the per-call environment never escapes to the heap.

// Reset empties f for a new build over n cells, keeping its arrays'
// capacity. Append the nodes with AddBranch and AddQuad, then call Seal.
func (f *Flat) Reset(n int) {
	f.n, f.height = n, 0
	f.depth = f.depth[:0]
	f.kidOff = f.kidOff[:0]
	f.kids = f.kids[:0]
	f.celOff = f.celOff[:0]
	f.cells = f.cells[:0]
	f.spanLo = f.spanLo[:0]
	f.spanHi = f.spanHi[:0]
}

// Seal closes the per-node offsets into prefix form; a built tree is usable
// once sealed.
func (f *Flat) Seal() {
	f.kidOff = append(f.kidOff, int32(len(f.kids)))
	f.celOff = append(f.celOff, int32(len(f.cells)))
}

// AddBranch appends an internal node at depth covering rectangle r of an
// nx-wide grid, with k > 0 child slots, and returns its index. The caller
// then appends the k child subtrees in order, recording each root with
// SetKid. (Leaves come from the shape builders, which also list their cells.)
func (f *Flat) AddBranch(nx int, r Rect, depth, k int) int32 {
	i := int32(len(f.depth))
	lo, hi := r.span(nx)
	f.depth = append(f.depth, int32(depth))
	f.spanLo = append(f.spanLo, int32(lo))
	f.spanHi = append(f.spanHi, int32(hi))
	f.kidOff = append(f.kidOff, int32(len(f.kids)))
	f.celOff = append(f.celOff, int32(len(f.cells)))
	if depth+1 > f.height {
		f.height = depth + 1
	}
	for ; k > 0; k-- {
		f.kids = append(f.kids, 0)
	}
	return i
}

// SetKid records kid as child c of node i.
func (f *Flat) SetKid(i int32, c int, kid int32) { f.kids[f.kidOff[i]+int32(c)] = kid }

// addLeaf appends a leaf at depth covering r's cells in row-major order.
func (f *Flat) addLeaf(nx int, r Rect, depth int) int32 {
	i := f.AddBranch(nx, r, depth, 0)
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			f.cells = append(f.cells, int32(y*nx+x))
		}
	}
	return i
}

// addGrid appends the hierarchy over r whose every level splits each
// dimension into at most b nearly equal parts (up to b*b children per node,
// row by row), down to single-cell leaves. An interval tree over [0, n) is
// the one-row grid n x 1.
func (f *Flat) addGrid(nx int, r Rect, depth, b int) int32 {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w == 1 && h == 1 {
		return f.addLeaf(nx, r, depth)
	}
	cx, cy := min(b, w), min(b, h)
	i := f.AddBranch(nx, r, depth, cx*cy)
	for yi := 0; yi < cy; yi++ {
		for xi := 0; xi < cx; xi++ {
			q := Rect{r.X0 + w*xi/cx, r.Y0 + h*yi/cy, r.X0 + w*(xi+1)/cx, r.Y0 + h*(yi+1)/cy}
			f.SetKid(i, yi*cx+xi, f.addGrid(nx, q, depth+1, b))
		}
	}
	return i
}

// AddQuad appends the quadtree over r of an nx-wide grid, rooted at depth
// with at most maxHeight levels, and returns its root. Splitting stops at
// single cells or at the height cap; truncated leaves cover their whole
// rectangle (this is what makes a height-limited QuadTree data-dependent
// and, on large domains, inconsistent — Theorem 5).
func (f *Flat) AddQuad(nx int, r Rect, depth, maxHeight int) int32 {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if maxHeight <= 1 || (w == 1 && h == 1) {
		return f.addLeaf(nx, r, depth)
	}
	mx, my := r.X0+(w+1)/2, r.Y0+(h+1)/2
	quads := [4]Rect{{r.X0, r.Y0, mx, my}, {mx, r.Y0, r.X1, my}, {r.X0, my, mx, r.Y1}, {mx, my, r.X1, r.Y1}}
	k := 0
	for _, q := range quads {
		if q.X1 > q.X0 && q.Y1 > q.Y0 {
			quads[k] = q
			k++
		}
	}
	i := f.AddBranch(nx, r, depth, k)
	for c, q := range quads[:k] {
		f.SetKid(i, c, f.AddQuad(nx, q, depth+1, maxHeight-1))
	}
	return i
}

// RebuildInterval rebuilds f in place as the b-ary interval tree over
// [0, n) — the layout SharedInterval(n, b) has — reusing its arrays, so
// per-trial throwaway hierarchies (SF's noisy bucket widths never repeat
// enough to cache) cost zero steady-state allocations to construct. A
// rebuilt Flat is single-owner: do not share it across goroutines or mix it
// with the Acquire/Release pool (use NewScratch).
func (f *Flat) RebuildInterval(n, b int) error {
	if err := checkShape(n, 1, b, 2, "branching factor"); err != nil {
		return err
	}
	f.Reset(n)
	f.addGrid(n, Rect{X1: n, Y1: 1}, 0, b)
	f.Seal()
	return nil
}

// N returns the number of cells the tree covers.
func (f *Flat) N() int { return f.n }

// Height returns the number of levels (a single leaf has height 1).
func (f *Flat) Height() int { return f.height }

// NumNodes returns the node count.
func (f *Flat) NumNodes() int { return len(f.depth) }

// Acquire returns a Scratch for one trial over this tree.
func (f *Flat) Acquire() *Scratch { return f.pool.Get().(*Scratch) }

// Release returns a Scratch to the pool.
func (f *Flat) Release(sc *Scratch) { f.pool.Put(sc) }

func (f *Flat) isLeaf(i int) bool { return f.kidOff[i] == f.kidOff[i+1] }

// ComputeSums fills sc's per-node totals of data bottom-up. Leaf sums add
// cells in list order and internal sums add children in child order, in one
// linear pass over the nodes.
func (f *Flat) ComputeSums(data []float64, sc *Scratch) {
	sc.ensure(len(f.depth), f.height)
	for i := len(f.depth) - 1; i >= 0; i-- {
		var s float64
		if f.isLeaf(i) {
			for _, c := range f.cells[f.celOff[i]:f.celOff[i+1]] {
				s += data[c]
			}
		} else {
			for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
				s += sc.sums[k]
			}
		}
		sc.sums[i] = s
	}
}

// MeasureInto draws one Laplace measurement per node at the per-level budget
// epsByLevel, in pre-order, writing noisy totals into the scratch. Each
// level's nodes partition the covered cells, so each level is charged as a
// parallel scope under LevelLabel(depth) and the whole tree costs
// sum(epsByLevel). ComputeSums must run first. A zero (or missing) level
// budget leaves the level unmeasured.
func (f *Flat) MeasureInto(m *noise.Meter, sc *Scratch, epsByLevel []float64) {
	sc.ensure(len(f.depth), f.height)
	for d := 0; d < f.height; d++ {
		if d < len(epsByLevel) && epsByLevel[d] > 0 {
			eps := epsByLevel[d]
			sc.vars[d] = 2 / (eps * eps)
		} else {
			sc.vars[d] = math.Inf(1)
		}
	}
	for i := range f.depth {
		d := int(f.depth[i])
		if d >= len(epsByLevel) || epsByLevel[d] <= 0 {
			sc.y[i] = 0
			continue
		}
		eps := epsByLevel[d]
		sc.y[i] = sc.sums[i] + m.LaplacePar(LevelLabel(d), 1/eps, eps)
	}
}

// InferInto runs the two-pass weighted least-squares consistency inference
// over the scratch's measurements and writes per-cell estimates into out
// (which is zeroed first). The upward pass combines each node's measurement
// with its children's total at minimum variance; the downward pass hands each
// child a share of its parent's residual in proportion to its variance.
// Truncated leaves spread their estimate uniformly over their cells (the
// uniformity assumption of Section 3.1).
func (f *Flat) InferInto(sc *Scratch, out []float64) {
	nodes := len(f.depth)
	// Upward pass in reverse pre-order: every node's children are processed
	// before the node itself.
	for i := nodes - 1; i >= 0; i-- {
		yvar := sc.vars[f.depth[i]]
		if f.isLeaf(i) {
			if math.IsInf(yvar, 1) {
				sc.z[i], sc.zvar[i] = 0, unmeasuredVar
			} else {
				sc.z[i], sc.zvar[i] = sc.y[i], yvar
			}
			continue
		}
		var childSum, childVar float64
		for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
			childSum += sc.z[k]
			childVar += sc.zvar[k]
		}
		sc.kSum[i], sc.kVar[i] = childSum, childVar
		precY := 0.0
		if !math.IsInf(yvar, 1) && yvar > 0 {
			precY = 1 / yvar
		}
		precC := 0.0
		if childVar > 0 {
			precC = 1 / childVar
		}
		switch {
		case precY == 0 && precC == 0:
			sc.z[i], sc.zvar[i] = childSum, unmeasuredVar
		case precY == 0:
			sc.z[i], sc.zvar[i] = childSum, childVar
		case precC == 0:
			sc.z[i], sc.zvar[i] = sc.y[i], yvar
		default:
			sc.z[i] = (precY*sc.y[i] + precC*childSum) / (precY + precC)
			sc.zvar[i] = 1 / (precY + precC)
		}
	}
	// Downward pass in pre-order: z[i] is promoted in place from combined
	// estimate to final target (parents are fully resolved before their
	// children are visited).
	for i := range out {
		out[i] = 0
	}
	for i := 0; i < nodes; i++ {
		if f.isLeaf(i) {
			cells := f.cells[f.celOff[i]:f.celOff[i+1]]
			per := sc.z[i] / float64(len(cells))
			for _, c := range cells {
				out[c] += per
			}
			continue
		}
		resid := sc.z[i] - sc.kSum[i]
		kids := f.kids[f.kidOff[i]:f.kidOff[i+1]]
		varSum := sc.kVar[i]
		for _, k := range kids {
			share := 1.0 / float64(len(kids))
			if varSum > 0 {
				share = sc.zvar[k] / varSum
			}
			sc.z[k] += resid * share
		}
	}
}

// AddCanonicalCount adds, per tree level, the number of maximal nodes fully
// contained in the inclusive cell range [lo, hi] — the canonical range
// decomposition GreedyH weights hierarchy levels by. The walk prunes at
// nodes whose span lies outside the range.
func (f *Flat) AddCanonicalCount(lo, hi int, weights []float64) {
	f.addCanonical(0, int32(lo), int32(hi), weights)
}

func (f *Flat) addCanonical(i int, lo, hi int32, weights []float64) {
	if f.spanHi[i] < lo || f.spanLo[i] > hi {
		return
	}
	if lo <= f.spanLo[i] && f.spanHi[i] <= hi {
		weights[f.depth[i]]++
		return
	}
	for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
		f.addCanonical(int(k), lo, hi, weights)
	}
}

// --- shared structure cache ---
//
// Data-independent structures depend only on their shape parameters, so one
// global cache serves every mechanism instance, cell, and worker. Entries are
// never evicted: the benchmark touches a bounded set of (domain, branching)
// shapes, and DAWA/SF's per-trial sub-domains are bounded by the domain size.

var flatCache sync.Map // flatKey -> *Flat

type flatKey struct {
	quad       bool
	nx, ny, bh int // branching factor (grid) or height cap (quad)
}

// checkShape validates a grid (or, with ny = 1, an interval) shape and its
// branching factor or height cap bh, which must be at least minBH.
func checkShape(nx, ny, bh, minBH int, what string) error {
	if nx <= 0 || ny <= 0 {
		return fmt.Errorf("tree: non-positive domain %dx%d", nx, ny)
	}
	if bh < minBH {
		return fmt.Errorf("tree: %s %d < %d", what, bh, minBH)
	}
	return nil
}

// shared returns the cached tree for key, building it on first use.
func shared(key flatKey) *Flat {
	if v, ok := flatCache.Load(key); ok {
		return v.(*Flat)
	}
	f := &Flat{}
	f.Reset(key.nx * key.ny)
	r := Rect{X1: key.nx, Y1: key.ny}
	if key.quad {
		f.AddQuad(key.nx, r, 0, key.bh)
	} else {
		f.addGrid(key.nx, r, 0, key.bh)
	}
	f.Seal()
	f.pool.New = func() any {
		sc := NewScratch()
		sc.ensure(len(f.depth), f.height)
		return sc
	}
	v, _ := flatCache.LoadOrStore(key, f)
	return v.(*Flat)
}

// SharedInterval returns the cached b-ary interval tree over [0, n): each
// level splits a node's range into at most b nearly equal contiguous pieces,
// down to single-cell leaves.
func SharedInterval(n, b int) (*Flat, error) { return SharedGrid(n, 1, b) }

// SharedGrid returns the cached hierarchy over an nx x ny grid where every
// level splits each dimension into at most b nearly equal parts (so a node
// has up to b*b children), down to single-cell leaves. Hb's
// multi-dimensional variant uses it with its variance-optimal b.
func SharedGrid(nx, ny, b int) (*Flat, error) {
	if err := checkShape(nx, ny, b, 2, "branching factor"); err != nil {
		return nil, err
	}
	return shared(flatKey{nx: nx, ny: ny, bh: b}), nil
}

// SharedQuad returns the cached quadtree over nx x ny with at most maxHeight
// levels (see AddQuad).
func SharedQuad(nx, ny, maxHeight int) (*Flat, error) {
	if err := checkShape(nx, ny, maxHeight, 1, "height"); err != nil {
		return nil, err
	}
	return shared(flatKey{quad: true, nx: nx, ny: ny, bh: maxHeight}), nil
}
