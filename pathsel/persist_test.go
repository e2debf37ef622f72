package pathsel

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip pins that a loaded synopsis answers exactly as the
// estimator that saved it, under every ordering: Estimate on every path of
// L_k, EstimatePrefix under the lexicographic orderings, bit for bit, and
// every refusal — empty, unknown label, over-length, a prefix query on a
// non-lexicographic ordering — with the same sentinel and text.
func TestSaveLoadRoundTrip(t *testing.T) {
	g := socialGraph(t)
	all := g.Labels() // grown breadth-first into every path of L_3
	for i := 0; i < len(all); i++ {
		if strings.Count(all[i], "/") < 2 {
			for _, l := range g.Labels() {
				all = append(all, all[i]+"/"+l)
			}
		}
	}
	refusals := map[string]error{"": ErrEmptyPath, "zzz": ErrUnknownLabel,
		"knows/zzz": ErrUnknownLabel, "knows/knows/knows/knows": ErrPathTooLong}
	queries := append([]string{"", "zzz", "knows/zzz", "knows/knows/knows/knows"}, all...)
	for _, method := range Orderings() {
		t.Run(method, func(t *testing.T) {
			est, err := Build(g, Config{MaxPathLength: 3, Ordering: method, Buckets: 5})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := est.Save(&buf); err != nil {
				t.Fatalf("save: %v", err)
			}
			ce, err := LoadEstimator(&buf)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			if ce.Ordering() != method || ce.MaxPathLength() != 3 || ce.Buckets() != est.Buckets() {
				t.Fatalf("metadata lost: %s/%d/%d", ce.Ordering(), ce.MaxPathLength(), ce.Buckets())
			}
			if labels := ce.Labels(); strings.Join(labels, ",") != "knows,likes" {
				t.Fatalf("labels lost: %v", labels)
			}
			lex := method == OrderingLexAlph || method == OrderingLexCard
			for _, m := range []struct {
				name          string
				saved, loaded func(string) (float64, error)
				refusesAll    bool
			}{
				{"Estimate", est.Estimate, ce.Estimate, false},
				{"EstimatePrefix", est.EstimatePrefix, ce.EstimatePrefix, !lex},
			} {
				t.Run(m.name, func(t *testing.T) {
					for _, q := range queries {
						want, werr := m.saved(q)
						got, gerr := m.loaded(q)
						sentinel, bad := refusals[q]
						refused := bad || m.refusesAll
						switch {
						case (werr != nil) != refused || (gerr != nil) != refused:
							t.Fatalf("%q: estimator %v, loaded %v, want refused=%v", q, werr, gerr, refused)
						case refused && (werr.Error() != gerr.Error() ||
							sentinel != nil && (!errors.Is(werr, sentinel) || !errors.Is(gerr, sentinel))):
							t.Fatalf("%q: estimator %v, loaded %v, want %v", q, werr, gerr, sentinel)
						case math.Float64bits(got) != math.Float64bits(want):
							t.Fatalf("%q changed: %v → %v", q, want, got)
						}
					}
				})
			}
		})
	}
}

func TestLoadEstimatorCorruptInputs(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"garbage":     "this is not a synopsis",
		"truncated 1": "\x02",
	}
	for name, in := range cases {
		if _, err := LoadEstimator(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt input should error", name)
		}
	}
	// A valid blob truncated anywhere must error, never panic.
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 2, Ordering: OrderingNumAlph, Buckets: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := LoadEstimator(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d should error", cut)
		}
	}
}

func TestSaveRejectsEndBiased(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 2, Histogram: "end-biased", Buckets: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err == nil {
		t.Fatal("end-biased synopsis should not be serializable")
	}
}

func TestSavedBlobIsCompact(t *testing.T) {
	// The synopsis must be O(β), not O(|Lk|): a 16-bucket synopsis over a
	// 258-path domain should fit comfortably under a kilobyte.
	g, err := GenerateDataset("Moreno health", 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 1024 {
		t.Fatalf("synopsis blob is %d bytes; expected O(β) compactness", buf.Len())
	}
	if int64(buf.Len()) >= est.DomainSize()*8 {
		t.Fatalf("synopsis (%d bytes) not smaller than raw distribution (%d entries)",
			buf.Len(), est.DomainSize())
	}
}
