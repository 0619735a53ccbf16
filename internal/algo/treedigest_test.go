package algo

import (
	"math/rand"
	"testing"

	"dpbench/internal/noise"
	"dpbench/internal/workload"
)

// treeDigestCases pin the exact output stream of every tree-structured
// mechanism, DPCube's kd partitioning (1D and 2D) and AGrid's two-level
// grid on a square power-of-two grid and a non-square, non-power-of-two one
// (a power-of-two and a non-power-of-two domain in 1D), under both samplers. A change to how a
// hierarchy is built, measured or inferred that moves a single ulp or a
// single noise draw fails here.
var treeDigestCases = []struct {
	name   string
	mk     func() Algorithm
	dims   []int
	legacy string
	fast   string
}{
	{"HYBRIDTREE", func() Algorithm { return &HybridTree{KDLevels: 3, MaxHeight: 10, StructRho: 0.1} }, []int{64, 64}, "0adc39548dd4a1cb", "13efb7bdc82dd69a"},
	{"HYBRIDTREE", func() Algorithm { return &HybridTree{KDLevels: 3, MaxHeight: 10, StructRho: 0.1} }, []int{7, 13}, "16822da17a203227", "60fa199b5ea07b1e"},
	{"HYBRIDTREE-kd0", func() Algorithm { return &HybridTree{KDLevels: 0, MaxHeight: 10, StructRho: 0.1} }, []int{64, 64}, "5b7c399e4c15e503", "9a3cf566bdf61005"},
	{"HYBRIDTREE-kd0", func() Algorithm { return &HybridTree{KDLevels: 0, MaxHeight: 10, StructRho: 0.1} }, []int{7, 13}, "c50dce25486e937c", "6a4e0f1d0c31ce9c"},
	{"HYBRIDTREE-h5", func() Algorithm { return &HybridTree{KDLevels: 4, MaxHeight: 5, StructRho: 0.2} }, []int{64, 64}, "7dfd6f786f475d8c", "93bc3ac73edeb65d"},
	{"HYBRIDTREE-h5", func() Algorithm { return &HybridTree{KDLevels: 4, MaxHeight: 5, StructRho: 0.2} }, []int{7, 13}, "d0b50a8f2504ac0e", "f970b56c755fd651"},
	{"DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }, []int{64, 64}, "9269b9a124826492", "69aea7ce1e068505"},
	{"DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }, []int{7, 13}, "b78a8463b2603ca9", "7c21c8b89e65ac57"},
	{"DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }, []int{4096}, "7d72c93e54f9e494", "27cb8e3a861103d3"},
	{"DPCUBE", func() Algorithm { return &DPCube{Rho: 0.5, MinCells: 10} }, []int{91}, "cd4bf889365cb0a1", "cb0df42ab956dcf1"},
	{"AGRID", func() Algorithm { return &AGrid{C: 10, C2: 5, Rho: 0.5} }, []int{64, 64}, "91c0b53649016816", "1714a9db358a7366"},
	{"AGRID", func() Algorithm { return &AGrid{C: 10, C2: 5, Rho: 0.5} }, []int{7, 13}, "af565253bc05b9cc", "12e750e234850123"},
	{"QUADTREE", func() Algorithm { return &QuadTree{MaxHeight: 10} }, []int{64, 64}, "5b7c399e4c15e503", "9a3cf566bdf61005"},
	{"QUADTREE", func() Algorithm { return &QuadTree{MaxHeight: 10} }, []int{7, 13}, "c50dce25486e937c", "6a4e0f1d0c31ce9c"},
	{"HB", func() Algorithm { return Hb{} }, []int{64, 64}, "e3b446e5d19b636f", "7480aa0bf48f089c"},
	{"HB", func() Algorithm { return Hb{} }, []int{7, 13}, "d22e4726c68a8697", "3b366d94cb36149b"},
	{"H", func() Algorithm { return &H{B: 2} }, []int{4096}, "217c59ee72f2bd38", "daf397ec4686d840"},
	{"H", func() Algorithm { return &H{B: 2} }, []int{91}, "70bb41cfbbf63485", "52a2fea6f151a666"},
	{"GREEDY-H", func() Algorithm { return &GreedyH{B: 2} }, []int{4096}, "a800b29d8a2d9156", "fbcf44c3f0899933"},
	{"GREEDY-H", func() Algorithm { return &GreedyH{B: 2} }, []int{91}, "c590d3d2acf4cf01", "41f5add7946e8087"},
}

// TestTreeMechanismDigests runs three trials through one plan per case (so
// pooled per-trial state is reused between them) and compares the digest of
// the concatenated outputs with the pinned value.
func TestTreeMechanismDigests(t *testing.T) {
	const eps, trials = 0.5, 3
	for _, c := range treeDigestCases {
		x := goldenVec(t, rand.New(rand.NewSource(21)), c.dims...)
		var w *workload.Workload
		if len(c.dims) == 1 {
			w = workload.RandomRange(c.dims[0], 64, rand.New(rand.NewSource(22)))
		} else {
			w = workload.RandomRange2D(c.dims[1], c.dims[0], 64, rand.New(rand.NewSource(22)))
		}
		for _, v := range []struct {
			sampler noise.SamplerVersion
			want    string
		}{{noise.SamplerLegacy, c.legacy}, {noise.SamplerFast, c.fast}} {
			p, err := WithSamplerVersion(c.mk(), v.sampler).Plan(x, w, eps)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, c.dims, err)
			}
			rng := rand.New(rand.NewSource(23))
			all := make([]float64, 0, trials*x.N())
			out := make([]float64, x.N())
			for i := 0; i < trials; i++ {
				if err := p.Execute(noise.NewMeter(eps, rng), out); err != nil {
					t.Fatalf("%s %v: %v", c.name, c.dims, err)
				}
				all = append(all, out...)
			}
			if got := outputDigest(all); got != v.want {
				t.Errorf("%s %v %s sampler: digest %s, pinned %s", c.name, c.dims, v.sampler, got, v.want)
			}
		}
	}
}
