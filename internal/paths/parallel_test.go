package paths_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
	. "repro/internal/paths"
)

func TestParallelCensusMatchesSequential(t *testing.T) {
	for _, specIdx := range []int{0, 2} {
		g := dataset.Generate(dataset.Table3()[specIdx], 0.05, 13).Freeze()
		for _, k := range []int{1, 2, 3} {
			seq := oracle.NewCensus(g, k)
			for _, workers := range []int{1, 2, 8, 0} {
				par := NewCensusHybrid(g, k, CensusOptions{Workers: workers})
				if par.Size() != seq.Size() {
					t.Fatalf("spec %d k=%d workers=%d: size %d != %d",
						specIdx, k, workers, par.Size(), seq.Size())
				}
				for idx := int64(0); idx < seq.Size(); idx++ {
					if par.AtCanonical(idx) != seq.AtCanonical(idx) {
						t.Fatalf("spec %d k=%d workers=%d: freq[%d] = %d != %d",
							specIdx, k, workers, idx, par.AtCanonical(idx), seq.AtCanonical(idx))
					}
				}
			}
		}
	}
}

func TestParallelCensusMoreWorkersThanLabels(t *testing.T) {
	g := dataset.ErdosRenyi(30, 100, dataset.UniformLabels{L: 2}, 5).Freeze()
	par := NewCensusHybrid(g, 2, CensusOptions{Workers: 64})
	seq := oracle.NewCensus(g, 2)
	if censusTotal(par) != censusTotal(seq) {
		t.Fatalf("totals differ: %d != %d", censusTotal(par), censusTotal(seq))
	}
}

func TestParallelCensusBadK(t *testing.T) {
	g := dataset.ErdosRenyi(10, 20, dataset.UniformLabels{L: 2}, 1).Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("k=0 should panic")
		}
	}()
	NewCensusHybrid(g, 0, CensusOptions{Workers: 2})
}
