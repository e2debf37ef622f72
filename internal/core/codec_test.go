package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/histogram"
	"repro/internal/oracle"
	"repro/internal/ordering"
	"repro/internal/paths"
)

// labelNames is a vocabulary of n labels, l0 … l(n−1).
func labelNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	return names
}

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
		if err := WriteSynopsis(&buf, labelNames(4), ph); err != nil {
			t.Fatalf("%s: encode: %v", method, err)
		}
		names, ph2, err := ReadSynopsis(&buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", method, err)
		}
		if ph2.Ordering().Name() != method || ph2.beta != 9 || ph2.builder != BuilderVOptimal {
			t.Fatalf("%s: metadata lost", method)
		}
		if strings.Join(names, ",") != "l0,l1,l2,l3" {
			t.Fatalf("%s: vocabulary lost: %v", method, names)
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
	if err := WriteSynopsis(&buf, labelNames(2), ph); err == nil {
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
	if err := WriteSynopsis(&buf, labelNames(2), ph); err == nil {
		t.Fatal("end-biased synopsis should not encode")
	}
}

func TestReadSynopsisCorrupt(t *testing.T) {
	// Bad magic after a valid vocabulary.
	if _, _, err := ReadSynopsis(bytes.NewReader([]byte("\x01\x01aXXXXYYYY"))); err == nil {
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
	if err := WriteSynopsis(&buf, labelNames(3), ph); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := ReadSynopsis(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
	// A flipped version byte — after the vocabulary (count and three
	// 2-byte names) and the 4-byte magic — must error.
	bad := append([]byte(nil), blob...)
	bad[1+3*2+4] = 99
	if _, _, err := ReadSynopsis(bytes.NewReader(bad)); err == nil {
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

func TestWriteSynopsisWriteFailures(t *testing.T) {
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
	if err := WriteSynopsis(&full, labelNames(3), ph); err != nil {
		t.Fatal(err)
	}
	// Every truncation point must surface an error (bufio may defer the
	// failure to Flush, but it must never be silently swallowed).
	for n := 0; n < full.Len(); n += 7 {
		if err := WriteSynopsis(&failingWriter{n: n}, labelNames(3), ph); err == nil {
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

// TestSynopsisAtTheBounds saves and loads the largest shapes the bounds
// accept — the widest vocabulary at the longest k whose domain fits int64,
// two labels at k = maxK, a name of maxName bytes — as one-bucket
// histograms, and checks that checkShape — which the reader and
// BuildForGraph both call — refuses one step past each bound.
func TestSynopsisAtTheBounds(t *testing.T) {
	oneBucket := func(ord ordering.Ordering) *PathHistogram {
		h, err := histogram.FromBuckets("serial", ord.Size(), []histogram.Bucket{{Lo: 0, Hi: ord.Size(), Sum: 7}})
		if err != nil {
			t.Fatal(err)
		}
		return &PathHistogram{ord: ord, est: h, builder: BuilderVOptimal, beta: 1}
	}
	long := labelNames(2)
	long[1] = strings.Repeat("x", maxName)
	for _, c := range []struct {
		names []string
		k     int
		num   bool
	}{
		{labelNames(maxLabels), 3, true}, // |L_3| = 2^16 + 2^32 + 2^48
		{labelNames(2), maxK, false},
		{long, 2, true},
	} {
		rank := ordering.AlphabeticalRanking(c.names)
		var ord ordering.Ordering = ordering.NewLexicographic(rank, c.k)
		if c.num {
			ord = ordering.NewNumerical(rank, c.k)
		}
		ph := oneBucket(ord)
		var buf bytes.Buffer
		if err := WriteSynopsis(&buf, c.names, ph); err != nil {
			t.Fatalf("%d labels at k = %d: %v", len(c.names), c.k, err)
		}
		names, ph2, err := ReadSynopsis(&buf)
		if err != nil {
			t.Fatalf("%d labels at k = %d: %v", len(c.names), c.k, err)
		}
		p := make(paths.Path, c.k)
		if len(names) != len(c.names) || ph2.Ordering().Size() != ord.Size() || ph2.Estimate(p) != ph.Estimate(p) {
			t.Fatalf("%d labels at k = %d: loaded %d labels over %d paths", len(c.names), c.k, len(names), ph2.Ordering().Size())
		}
	}

	// One step past each bound: a domain past int64, k = maxK+1, a longer
	// name, more multisets than a sum-based ordering tabulates (1 446
	// labels at k = 2 are 1 047 627 of them, 1 447 are 1 049 075).
	if err := checkShape(ordering.MethodSumBased, labelNames(1446), 2); err != nil {
		t.Fatalf("sum-based at the bound: %v", err)
	}
	longer := labelNames(2)
	longer[1] = strings.Repeat("x", maxName+1)
	for _, c := range []struct {
		method string
		names  []string
		k      int
		want   string
	}{
		{ordering.MethodNumAlph, labelNames(maxLabels), 4, "overflows int64"},
		{ordering.MethodNumAlph, labelNames(2), maxK + 1, "outside"},
		{ordering.MethodNumAlph, longer, 2, "exceeds"},
		{ordering.MethodSumBased, labelNames(1447), 2, "multisets"},
	} {
		if err := checkShape(c.method, c.names, c.k); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("checkShape(%s, %d labels, k = %d) = %v, want %q", c.method, len(c.names), c.k, err, c.want)
		}
	}
	// Build refuses before the census.
	g := dataset.ErdosRenyi(20, 60, dataset.UniformLabels{L: 2}, 2).Freeze()
	if _, err := BuildForGraph(g, ordering.MethodNumAlph, BuilderVOptimal, maxK+1, 4, paths.CensusOptions{}); err == nil {
		t.Errorf("BuildForGraph at k = %d should error", maxK+1)
	}
}
