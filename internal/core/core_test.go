package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/oracle"
	"repro/internal/ordering"
	"repro/internal/paths"
)

func testCensus(t *testing.T) (*paths.Census, *ordering.Ranking) {
	t.Helper()
	g := dataset.ErdosRenyi(60, 300, dataset.NewZipfLabels(3, 1.0), 17).Freeze()
	c := oracle.NewCensus(g, 3)
	return c, ordering.CardinalityRanking(c.LabelFrequencies(), g.LabelNames())
}

func TestDomainVectorIsPermutation(t *testing.T) {
	c, card := testCensus(t)
	for _, ord := range []ordering.Ordering{
		ordering.NewNumerical(card, 3),
		ordering.NewLexicographic(card, 3),
		ordering.NewSumBased(card, 3),
	} {
		data := DomainVector(c, ord)
		if int64(len(data)) != c.Size() {
			t.Fatalf("%s: domain size %d, want %d", ord.Name(), len(data), c.Size())
		}
		var sum, mass int64
		for i, x := range data {
			sum += x
			mass += c.AtCanonical(int64(i))
		}
		if sum != mass {
			t.Fatalf("%s: domain mass %d, want %d (must be a permutation)", ord.Name(), sum, mass)
		}
		// Spot-check: the value at each path's index is its selectivity.
		c.ForEach(func(p paths.Path, f int64) bool {
			if data[ord.Index(p)] != f {
				t.Fatalf("%s: domain[%d] = %d, want f(%s) = %d",
					ord.Name(), ord.Index(p), data[ord.Index(p)], p.Key(), f)
			}
			return true
		})
	}
}

func TestDomainVectorMismatchPanics(t *testing.T) {
	c, card := testCensus(t)
	wrong := ordering.NewNumerical(card, 2) // k mismatch
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched census/ordering should panic")
		}
	}()
	DomainVector(c, wrong)
}

func TestBuildAllBuilders(t *testing.T) {
	c, card := testCensus(t)
	ord := ordering.NewSumBased(card, 3)
	for _, builder := range []string{BuilderVOptimal, BuilderVOptimalDP, BuilderEquiWidth,
		BuilderEquiDepth, BuilderMaxDiff, BuilderEndBiased} {
		ph, err := Build(c, ord, builder, 16)
		if err != nil {
			t.Fatalf("%s: %v", builder, err)
		}
		if ph.builder != builder || ph.beta != 16 {
			t.Fatalf("%s: metadata wrong", builder)
		}
		if ph.Buckets() < 1 || ph.Buckets() > 17 {
			t.Fatalf("%s: %d buckets outside sanity band", builder, ph.Buckets())
		}
		// Estimates are finite and non-negative for every path.
		c.ForEach(func(p paths.Path, f int64) bool {
			e := ph.Estimate(p)
			if math.IsNaN(e) || math.IsInf(e, 0) || e < 0 {
				t.Fatalf("%s: bad estimate %v for %s", builder, e, p.Key())
			}
			return true
		})
	}
}

func TestBuildUnknownBuilder(t *testing.T) {
	c, card := testCensus(t)
	if _, err := Build(c, ordering.NewNumerical(card, 3), "nonsense", 8); err == nil {
		t.Fatal("unknown builder should error")
	}
}

func TestBuildForGraph(t *testing.T) {
	g := dataset.ErdosRenyi(40, 200, dataset.UniformLabels{L: 3}, 23).Freeze()
	ph, err := BuildForGraph(g, ordering.MethodSumBased, BuilderVOptimal, 2, 8, paths.CensusOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ph.Ordering().Name() != ordering.MethodSumBased {
		t.Fatal("wrong ordering")
	}
	if ph.Ordering().K() != 2 || ph.Ordering().Size() != 3+9 {
		t.Fatalf("domain k = %d, |Lk| = %d, want 2 and 12", ph.Ordering().K(), ph.Ordering().Size())
	}
	if _, err := BuildForGraph(g, "bogus", BuilderVOptimal, 2, 8, paths.CensusOptions{}); err == nil {
		t.Fatal("bad method should error")
	}
	if _, err := BuildForGraph(g, ordering.MethodNumAlph, "bogus", 2, 8, paths.CensusOptions{}); err == nil {
		t.Fatal("bad builder should error")
	}
}

func TestEstimateExactWithMaxBuckets(t *testing.T) {
	// β = |Lk| → every bucket is a singleton → estimates are exact.
	c, card := testCensus(t)
	ord := ordering.NewNumerical(card, 3)
	ph, err := Build(c, ord, BuilderVOptimal, int(c.Size()))
	if err != nil {
		t.Fatal(err)
	}
	c.ForEach(func(p paths.Path, f int64) bool {
		if got := ph.Estimate(p); got != float64(f) {
			t.Fatalf("singleton-bucket estimate %v != f(%s) = %d", got, p.Key(), f)
		}
		return true
	})
	ev := Evaluate(ph, c)
	if ev.MeanErrorRate != 0 || ev.MaxAbsError != 0 {
		t.Fatalf("exact histogram should have zero error: %+v", ev)
	}
	if ev.MeanQError != 1 {
		t.Fatalf("exact histogram q-error should be 1, got %v", ev.MeanQError)
	}
}

func TestEvaluateRange(t *testing.T) {
	c, card := testCensus(t)
	ph, err := Build(c, ordering.NewNumerical(card, 3), BuilderEquiWidth, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := Evaluate(ph, c)
	if ev.MeanErrorRate < 0 || ev.MeanErrorRate > 1 {
		t.Fatalf("mean error rate %v outside [0,1]", ev.MeanErrorRate)
	}
	if ev.MaxAbsError < ev.MeanErrorRate {
		t.Fatal("max < mean is impossible")
	}
	if ev.MeanQError < 1 {
		t.Fatalf("mean q-error %v below 1", ev.MeanQError)
	}
}

func TestIdealOrderingBeatsOrMatchesNumAlph(t *testing.T) {
	// The accuracy ranking the paper's framework predicts: ideal ordering
	// (sorted by selectivity) is the lower envelope of error for a fixed
	// V-Optimal budget.
	g := dataset.Generate(dataset.Table3()[0], 0.08, 5).Freeze()
	c := oracle.NewCensus(g, 3)
	alphNames := make([]string, g.NumLabels())
	for l := range alphNames {
		alphNames[l] = g.LabelName(l)
	}
	numAlph := ordering.NewNumerical(ordering.AlphabeticalRanking(alphNames), 3)
	ideal := ordering.NewIdeal(c)

	beta := 8
	phA, err := Build(c, numAlph, BuilderVOptimal, beta)
	if err != nil {
		t.Fatal(err)
	}
	phI, err := Build(c, ideal, BuilderVOptimal, beta)
	if err != nil {
		t.Fatal(err)
	}
	evA, evI := Evaluate(phA, c), Evaluate(phI, c)
	if evI.MeanErrorRate > evA.MeanErrorRate+0.02 {
		t.Fatalf("ideal ordering (%.4f) should not lose to num-alph (%.4f)",
			evI.MeanErrorRate, evA.MeanErrorRate)
	}
}

func TestEstimatorAccessor(t *testing.T) {
	c, card := testCensus(t)
	ph, err := Build(c, ordering.NewNumerical(card, 3), BuilderVOptimal, 4)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := ph.Estimator().(*histogram.Histogram)
	if !ok {
		t.Fatal("v-optimal estimator should be a *histogram.Histogram")
	}
	if h.Buckets() != ph.Buckets() {
		t.Fatal("bucket counts disagree")
	}
}
