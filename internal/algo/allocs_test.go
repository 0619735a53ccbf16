package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// executeAllocBounds caps the heap allocations of one Execute per mechanism
// and dimensionality, under either sampler. The hot-path contract is
// transitive: a //dp:hotpath Execute that allocates through its callees
// breaks it as surely as one that allocates in its own body, which the
// allocfree analyzer cannot see. Lower a bound when a mechanism gets
// leaner; raising one needs a reason.
var executeAllocBounds = map[string]float64{
	"AGRID/2D":      3528,
	"AHP/1D":        2,
	"AHP/2D":        2,
	"AHP*/1D":       2,
	"AHP*/2D":       2,
	"DAWA/1D":       3,
	"DAWA/2D":       1,
	"DPCUBE/1D":     0,
	"DPCUBE/2D":     4,
	"EFPA/1D":       0,
	"GREEDY-H/1D":   0,
	"GREEDY-H/2D":   0,
	"H/1D":          0,
	"HB/1D":         0,
	"HB/2D":         0,
	"HYBRIDTREE/2D": 4,
	"IDENTITY/1D":   0,
	"IDENTITY/2D":   0,
	"MWEM/1D":       0,
	"MWEM/2D":       0,
	"MWEM*/1D":      0,
	"MWEM*/2D":      0,
	"PHP/1D":        0,
	"PRIVELET/1D":   0,
	"PRIVELET/2D":   0,
	"QUADTREE/2D":   0,
	"SF/1D":         2,
	"UGRID/2D":      0,
	"UNIFORM/1D":    0,
	"UNIFORM/2D":    0,
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func TestExecuteAllocsGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const eps, runs = 0.5, 10
	for _, dims := range [][]int{{4096}, {64, 64}} {
		k := len(dims)
		x := goldenVec(t, rand.New(rand.NewSource(31)), dims...)
		var w *workload.Workload
		if k == 1 {
			w = workload.Prefix(dims[0])
		} else {
			w = workload.RandomRange2D(dims[1], dims[0], 2000, rand.New(rand.NewSource(32)))
		}
		out := make([]float64, x.N())
		for _, a := range All(k) {
			key := fmt.Sprintf("%s/%dD", a.Name(), k)
			for _, v := range []noise.SamplerVersion{noise.SamplerLegacy, noise.SamplerFast} {
				p, err := WithSamplerVersion(a, v).Plan(x, w, eps)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				// AllocsPerRun adds one warm-up run; every run gets its own
				// meter, made before counting starts.
				meters := make([]*noise.Meter, runs+1)
				for i := range meters {
					meters[i] = noise.NewMeter(eps, rand.New(rand.NewSource(int64(i+1))))
				}
				i := 0
				got := testing.AllocsPerRun(runs, func() {
					if err := p.Execute(meters[i], out); err != nil {
						t.Fatalf("%s %s: %v", key, v, err)
					}
					i++
				})
				bound, ok := executeAllocBounds[key]
				if !ok {
					t.Errorf("%s has no allocation bound", key)
				} else if got > bound {
					t.Errorf("%s %s sampler: %v allocs per Execute, bound %v", key, v, got, bound)
				}
			}
		}
	}
}
