package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/oracle"
	"repro/internal/ordering"
	"repro/internal/paths"
)

func TestCodecRoundTripAllMethods(t *testing.T) {
	g := dataset.ErdosRenyi(50, 250, dataset.NewZipfLabels(4, 1.0), 31).Freeze()
	k := 3
	census := oracle.NewCensus(g, k)
	for _, method := range ordering.PaperMethods() {
		ord, err := ordering.ForGraph(method, g, k)
		if err != nil {
			t.Fatal(err)
		}
		ph, err := Build(census, ord, BuilderVOptimal, 9)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ph.Encode(&buf); err != nil {
			t.Fatalf("%s: encode: %v", method, err)
		}
		ph2, err := ReadPathHistogram(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", method, err)
		}
		if ph2.Ordering().Name() != method || ph2.Beta() != 9 || ph2.Builder() != BuilderVOptimal {
			t.Fatalf("%s: metadata lost", method)
		}
		// Every domain position estimates identically.
		census.ForEach(func(p paths.Path, _ int64) bool {
			if ph.Estimate(p) != ph2.Estimate(p) {
				t.Fatalf("%s: estimate of %s changed", method, p.Key())
			}
			return true
		})
	}
}

func TestCodecRejectsMaterialized(t *testing.T) {
	g := dataset.ErdosRenyi(20, 60, dataset.UniformLabels{L: 2}, 1).Freeze()
	census := oracle.NewCensus(g, 2)
	ph, err := Build(census, ordering.NewIdeal(census), BuilderVOptimal, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ph.Encode(&buf); err == nil {
		t.Fatal("ideal (materialized) ordering should not encode")
	}
}

func TestCodecRejectsEndBiased(t *testing.T) {
	g := dataset.ErdosRenyi(20, 60, dataset.UniformLabels{L: 2}, 1).Freeze()
	census := oracle.NewCensus(g, 2)
	ord, err := ordering.ForGraph(ordering.MethodNumAlph, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Build(census, ord, BuilderEndBiased, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ph.Encode(&buf); err == nil {
		t.Fatal("end-biased synopsis should not encode")
	}
}

func TestReadPathHistogramCorrupt(t *testing.T) {
	// Bad magic.
	if _, err := ReadPathHistogram(bytes.NewReader([]byte("XXXXYYYY"))); err == nil {
		t.Fatal("bad magic should error")
	}
	// Truncations of a valid blob must all error.
	g := dataset.ErdosRenyi(20, 60, dataset.UniformLabels{L: 3}, 2).Freeze()
	census := oracle.NewCensus(g, 2)
	ord, _ := ordering.ForGraph(ordering.MethodSumBased, g, 2)
	ph, err := Build(census, ord, BuilderVOptimal, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ph.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, err := ReadPathHistogram(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
	// A flipped version byte must error.
	bad := append([]byte(nil), blob...)
	bad[4] = 99
	if _, err := ReadPathHistogram(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version should error")
	}
}

// failingWriter errors after n bytes — write-side failure injection.
type failingWriter struct {
	n       int
	written int
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		allowed := w.n - w.written
		if allowed < 0 {
			allowed = 0
		}
		w.written += allowed
		return allowed, bytes.ErrTooLarge
	}
	w.written += len(p)
	return len(p), nil
}

func TestEncodeWriteFailures(t *testing.T) {
	g := dataset.ErdosRenyi(20, 60, dataset.UniformLabels{L: 3}, 2).Freeze()
	census := oracle.NewCensus(g, 2)
	ord, err := ordering.ForGraph(ordering.MethodSumBased, g, 2)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Build(census, ord, BuilderVOptimal, 4)
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := ph.Encode(&full); err != nil {
		t.Fatal(err)
	}
	// Every truncation point must surface an error (bufio may defer the
	// failure to Flush, but it must never be silently swallowed).
	for n := 0; n < full.Len(); n += 7 {
		if err := ph.Encode(&failingWriter{n: n}); err == nil {
			t.Fatalf("write failing at byte %d should error", n)
		}
	}
}

func TestEstimatePrefixCore(t *testing.T) {
	g := dataset.ErdosRenyi(40, 160, dataset.UniformLabels{L: 3}, 6).Freeze()
	census := oracle.NewCensus(g, 3)

	lex, err := ordering.ForGraph(ordering.MethodLexCard, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Build(census, lex, BuilderVOptimal, int(census.Size()))
	if err != nil {
		t.Fatal(err)
	}
	// Exact budget: prefix estimate equals the census prefix sum.
	got, err := ph.EstimatePrefix(paths.Path{0})
	if err != nil {
		t.Fatal(err)
	}
	if want := census.PrefixSelectivity(paths.Path{0}); got != float64(want) {
		t.Fatalf("EstimatePrefix = %v, want %d", got, want)
	}

	// Non-lex ordering refuses.
	num, err := ordering.ForGraph(ordering.MethodNumAlph, g, 3)
	if err != nil {
		t.Fatal(err)
	}
	phNum, err := Build(census, num, BuilderVOptimal, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phNum.EstimatePrefix(paths.Path{0}); err == nil {
		t.Fatal("num ordering should refuse prefix queries")
	}

	// Non-serial synopsis refuses.
	phEB, err := Build(census, lex, BuilderEndBiased, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phEB.EstimatePrefix(paths.Path{0}); err == nil {
		t.Fatal("end-biased synopsis should refuse prefix queries")
	}
}

func TestOrderingFromMethodValidation(t *testing.T) {
	rank := ordering.AlphabeticalRanking([]string{"a", "b", "c"})
	if _, err := orderingFromMethod("bogus", rank, 2); err == nil {
		t.Fatal("unknown method should error")
	}
	if _, err := orderingFromMethod(ordering.MethodNumAlph, rank, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := orderingFromMethod(ordering.MethodNumAlph, rank, 99); err == nil {
		t.Fatal("huge k should error")
	}
	ord, err := orderingFromMethod("sum-id", rank, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ord.(*ordering.SumBased); !ok {
		t.Fatal("sum-* should reconstruct a SumBased ordering")
	}
}
