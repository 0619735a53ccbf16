package tree

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dpbench/internal/noise"
)

// node is a pointer-tree view of a Flat: the recursive formulation of the
// trial pipeline (true counts, pre-order measurement, two-pass inference)
// that the flat, linear-pass implementation is checked against.
type node struct {
	kids   []*node
	cells  []int32
	depth  int
	lo, hi int32   // inclusive covered cell span
	y, v   float64 // measurement and its variance (+Inf: unmeasured)
	z, zv  float64 // combined estimate from the upward pass and its variance
}

// toNode converts the subtree of f rooted at node i.
func toNode(f *Flat, i int) *node {
	nd := &node{cells: f.cells[f.celOff[i]:f.celOff[i+1]], depth: int(f.depth[i]), lo: f.spanLo[i], hi: f.spanHi[i]}
	for _, k := range f.kids[f.kidOff[i]:f.kidOff[i+1]] {
		nd.kids = append(nd.kids, toNode(f, int(k)))
	}
	return nd
}

func (nd *node) height() int {
	h := 0
	for _, c := range nd.kids {
		h = max(h, c.height())
	}
	return h + 1
}

func (nd *node) count() int {
	n := 1
	for _, c := range nd.kids {
		n += c.count()
	}
	return n
}

func (nd *node) trueCount(data []float64) float64 {
	var s float64
	for _, c := range nd.cells {
		s += data[c]
	}
	for _, c := range nd.kids {
		s += c.trueCount(data)
	}
	return s
}

// measure draws every node's measurement in pre-order.
func (nd *node) measure(m *noise.Meter, data []float64, epsByLevel []float64) {
	if nd.depth >= len(epsByLevel) || epsByLevel[nd.depth] <= 0 {
		nd.y, nd.v = 0, math.Inf(1)
	} else {
		eps := epsByLevel[nd.depth]
		nd.y = nd.trueCount(data) + m.LaplacePar(LevelLabel(nd.depth), 1/eps, eps)
		nd.v = 2 / (eps * eps)
	}
	for _, c := range nd.kids {
		c.measure(m, data, epsByLevel)
	}
}

func (nd *node) infer(n int) []float64 {
	nd.upward()
	out := make([]float64, n)
	nd.downward(nd.z, out)
	return out
}

// upward computes, for every node, the minimum-variance unbiased combination
// z of its own measurement and the sum of its children's combined estimates.
func (nd *node) upward() {
	if len(nd.kids) == 0 {
		nd.z, nd.zv = nd.y, nd.v
		if math.IsInf(nd.v, 1) {
			nd.z, nd.zv = 0, unmeasuredVar
		}
		return
	}
	var childSum, childVar float64
	for _, c := range nd.kids {
		c.upward()
		childSum += c.z
		childVar += c.zv
	}
	precY := 0.0
	if !math.IsInf(nd.v, 1) && nd.v > 0 {
		precY = 1 / nd.v
	}
	precC := 0.0
	if childVar > 0 {
		precC = 1 / childVar
	}
	switch {
	case precY == 0 && precC == 0:
		nd.z, nd.zv = childSum, unmeasuredVar
	case precY == 0:
		nd.z, nd.zv = childSum, childVar
	case precC == 0:
		nd.z, nd.zv = nd.y, nd.v
	default:
		nd.z = (precY*nd.y + precC*childSum) / (precY + precC)
		nd.zv = 1 / (precY + precC)
	}
}

// downward propagates the root-consistent totals to the leaves: each node's
// final estimate is its combined estimate plus a share of the parent's
// residual, apportioned by variance.
func (nd *node) downward(target float64, out []float64) {
	if len(nd.kids) == 0 {
		per := target / float64(len(nd.cells))
		for _, c := range nd.cells {
			out[c] += per
		}
		return
	}
	var childSum, varSum float64
	for _, c := range nd.kids {
		childSum += c.z
		varSum += c.zv
	}
	resid := target - childSum
	for _, c := range nd.kids {
		share := 1.0 / float64(len(nd.kids))
		if varSum > 0 {
			share = c.zv / varSum
		}
		c.downward(c.z+resid*share, out)
	}
}

// hybridShape builds a HybridTree-style tree over a 13x9 grid: a kd split at
// x=5 whose right half is split again at y=4, with quadtrees of different
// height caps hung below the kd levels.
func hybridShape() *Flat {
	const nx, ny = 13, 9
	f := &Flat{}
	f.Reset(nx * ny)
	root := f.AddBranch(nx, Rect{0, 0, nx, ny}, 0, 2)
	f.SetKid(root, 0, f.AddQuad(nx, Rect{0, 0, 5, ny}, 1, 4))
	right := f.AddBranch(nx, Rect{5, 0, nx, ny}, 1, 2)
	f.SetKid(root, 1, right)
	f.SetKid(right, 0, f.AddQuad(nx, Rect{5, 0, nx, 4}, 2, 3))
	f.SetKid(right, 1, f.AddQuad(nx, Rect{5, 4, nx, ny}, 2, 1))
	f.Seal()
	return f
}

// TestFlatMatchesNodeBitwise pins the flat tree's whole trial pipeline
// (sums, measurement draw order, two-pass inference) to the recursive
// formulation over the same tree bit for bit, across interval, grid,
// truncated quad and kd+quad hybrid shapes.
func TestFlatMatchesNodeBitwise(t *testing.T) {
	for _, s := range treeShapes {
		t.Run(s.name, func(t *testing.T) {
			flat, err := s.mk()
			if err != nil {
				t.Fatal(err)
			}
			root := toNode(flat, 0)
			if flat.N() != s.n {
				t.Fatalf("flat covers %d cells, want %d", flat.N(), s.n)
			}
			if flat.Height() != root.height() {
				t.Fatalf("flat height %d, tree height %d", flat.Height(), root.height())
			}
			if flat.NumNodes() != root.count() {
				t.Fatalf("flat has %d nodes, tree has %d", flat.NumNodes(), root.count())
			}
			data := make([]float64, s.n)
			rng := rand.New(rand.NewSource(7))
			for i := range data {
				data[i] = float64(rng.Intn(300))
			}
			sc := NewScratch()
			for seed := int64(1); seed <= 4; seed++ {
				for _, budget := range [][]float64{
					UniformLevelBudget(0.8, flat.Height()),
					GeometricLevelBudget(0.8, flat.Height()),
					// A zero root-level budget exercises the unmeasured-node
					// inference branches.
					append([]float64{0}, UniformLevelBudget(0.8, flat.Height())[1:]...),
				} {
					root.measure(noise.NewMeter(0.8, rand.New(rand.NewSource(seed))), data, budget)
					want := root.infer(s.n)

					flat.ComputeSums(data, sc)
					flat.MeasureInto(noise.NewMeter(0.8, rand.New(rand.NewSource(seed))), sc, budget)
					got := make([]float64, s.n)
					flat.InferInto(sc, got)

					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed %d cell %d: flat %v != recursive %v (bitwise)", seed, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestSharedStructureCaching checks that the global caches return the same
// immutable structure for repeated shape parameters and reject invalid ones.
func TestSharedStructureCaching(t *testing.T) {
	a, err := SharedInterval(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedInterval(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("SharedInterval did not cache")
	}
	if _, err := SharedInterval(0, 2); err == nil {
		t.Fatal("expected error for n=0")
	}
	q1, err := SharedQuad(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := SharedQuad(16, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("SharedQuad did not cache")
	}
	g1, err := SharedGrid(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A grid and a quad over the same domain are distinct cache entries.
	if any(g1) == any(q1) {
		t.Fatal("grid and quad cache entries collide")
	}
}

// TestFlatCanonicalCountMatchesRecursive checks the canonical range
// decomposition counts against a direct recursive walk over the same tree.
func TestFlatCanonicalCountMatchesRecursive(t *testing.T) {
	flat, err := SharedInterval(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	var rec func(nd *node, lo, hi int32, w []float64)
	rec = func(nd *node, lo, hi int32, w []float64) {
		if nd.hi < lo || nd.lo > hi {
			return
		}
		if lo <= nd.lo && nd.hi <= hi {
			w[nd.depth]++
			return
		}
		for _, c := range nd.kids {
			rec(c, lo, hi, w)
		}
	}
	root := toNode(flat, 0)
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 200; q++ {
		lo, hi := rng.Intn(100), rng.Intn(100)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := make([]float64, flat.Height())
		rec(root, int32(lo), int32(hi), want)
		got := make([]float64, flat.Height())
		flat.AddCanonicalCount(lo, hi, got)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("query [%d,%d] level %d: %v != %v", lo, hi, d, got[d], want[d])
			}
		}
	}
}

// layoutDigest hashes every structural array of a Flat, so any change to
// node order, child order, spans or leaf cell lists changes the digest.
func layoutDigest(f *Flat) string {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v int32) {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:])
	}
	put(int32(f.n))
	put(int32(f.height))
	for _, a := range [][]int32{f.depth, f.kidOff, f.kids, f.celOff, f.cells, f.spanLo, f.spanHi} {
		put(int32(len(a)))
		for _, v := range a {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// treeShapes are the trees the flat pipeline is checked on, with the digest
// of the exact pre-order layout each builder produces.
var treeShapes = []struct {
	name   string
	mk     func() (*Flat, error)
	n      int
	layout string
}{
	{"interval-64-b2", func() (*Flat, error) { return SharedInterval(64, 2) }, 64, "9b6cc14392d68233"},
	{"interval-100-b2", func() (*Flat, error) { return SharedInterval(100, 2) }, 100, "61c1b71ac8dbc166"},
	{"interval-37-b5", func() (*Flat, error) { return SharedInterval(37, 5) }, 37, "1e25261ff1f748d2"},
	{"grid-8x8-b2", func() (*Flat, error) { return SharedGrid(8, 8, 2) }, 64, "2c52e7fbfc458b3f"},
	{"grid-6x9-b3", func() (*Flat, error) { return SharedGrid(6, 9, 3) }, 54, "5fc6bfe3781b4b08"},
	{"quad-16x16-h3", func() (*Flat, error) { return SharedQuad(16, 16, 3) }, 256, "831badec44743cb7"},
	{"quad-7x5-h10", func() (*Flat, error) { return SharedQuad(7, 5, 10) }, 35, "e5cbf3d63ec54818"},
	{"hybrid-13x9", func() (*Flat, error) { return hybridShape(), nil }, 117, "93e94673d0a2cf52"},
}

// TestSharedLayoutDigests pins the layouts of treeShapes.
func TestSharedLayoutDigests(t *testing.T) {
	for _, c := range treeShapes {
		f, err := c.mk()
		if err != nil {
			t.Fatal(err)
		}
		if got := layoutDigest(f); got != c.layout {
			t.Errorf("%s: layout digest %s, pinned %s", c.name, got, c.layout)
		}
	}
}
