package pathsel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// labelPaths lists every path of L_k over the labels, shortest first.
func labelPaths(labels []string, k int) []string {
	all := append([]string(nil), labels...) // grown breadth-first
	for i := 0; i < len(all); i++ {
		if strings.Count(all[i], "/") < k-1 {
			for _, l := range labels {
				all = append(all, all[i]+"/"+l)
			}
		}
	}
	return all
}

// TestSaveLoadRoundTrip pins that a loaded synopsis answers exactly as the
// estimator that saved it, under every ordering: Estimate on every path of
// L_k, EstimatePrefix under the lexicographic orderings, bit for bit, and
// every refusal — empty, unknown label, over-length, a prefix query on a
// non-lexicographic ordering — with the same sentinel and text.
func TestSaveLoadRoundTrip(t *testing.T) {
	g := socialGraph(t)
	all := labelPaths(g.Labels(), 3)
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

// field is one field of a saved synopsis: its name and its bytes.
type field struct {
	name string
	b    []byte
}

// splitSynopsis cuts a saved blob into its fields, in the codec's order
// (internal/core/codec.go): "labels", then "name i" per label, "magic",
// "version", "method", "ranking name", "k", "ranking length", "rank i" per
// label, "builder", "beta", "kind", "domain", "buckets", then each
// bucket's "lo i", "hi i", "sum i" and "sse i". A string is one field,
// its length prefix included.
func splitSynopsis(t *testing.T, blob []byte) []field {
	t.Helper()
	r := bytes.NewReader(blob)
	var fields []field
	take := func(name string, read func() error) {
		start := len(blob) - r.Len()
		if err := read(); err != nil {
			t.Fatalf("field %s: %v", name, err)
		}
		fields = append(fields, field{name, blob[start : len(blob)-r.Len()]})
	}
	uvarint := func(name string) (v uint64) {
		take(name, func() (err error) { v, err = binary.ReadUvarint(r); return err })
		return v
	}
	varint := func(name string) {
		take(name, func() error { _, err := binary.ReadVarint(r); return err })
	}
	fixed := func(name string, n int) {
		take(name, func() error { _, err := io.ReadFull(r, make([]byte, n)); return err })
	}
	str := func(name string) {
		take(name, func() error {
			n, err := binary.ReadUvarint(r)
			if err == nil {
				_, err = io.ReadFull(r, make([]byte, n))
			}
			return err
		})
	}
	for i := range uvarint("labels") {
		str(fmt.Sprintf("name %d", i))
	}
	fixed("magic", 4)
	fixed("version", 1)
	str("method")
	str("ranking name")
	uvarint("k")
	for i := range uvarint("ranking length") {
		uvarint(fmt.Sprintf("rank %d", i))
	}
	str("builder")
	uvarint("beta")
	str("kind")
	varint("domain")
	for i := range uvarint("buckets") {
		varint(fmt.Sprintf("lo %d", i))
		varint(fmt.Sprintf("hi %d", i))
		varint(fmt.Sprintf("sum %d", i))
		fixed(fmt.Sprintf("sse %d", i), 8)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes after the last bucket", r.Len())
	}
	return fields
}

// TestLoadEstimatorRefusesEachBound builds one corrupt blob per check of
// the reader — each a valid blob with one field replaced — and expects
// ErrBadSnapshot for the reason that check gives, so a deleted check fails
// its row even where a later check would refuse the blob too.
func TestLoadEstimatorRefusesEachBound(t *testing.T) {
	est, err := Build(socialGraph(t), Config{MaxPathLength: 3, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fields := splitSynopsis(t, buf.Bytes())
	at := func(name string) []byte {
		for _, f := range fields {
			if f.name == name {
				return f.b
			}
		}
		t.Fatalf("no field %s", name)
		return nil
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	str := func(s string) []byte { return append(uv(uint64(len(s))), s...) }
	domain := est.DomainSize()
	// 256 distinct names: with k = 3, 2 862 208 multisets for the
	// sum-based ordering; with k = 8, a domain past int64.
	wide := uv(256)
	for l := range 256 {
		wide = append(wide, str(fmt.Sprint(l))...)
	}
	one := func(field string, b []byte) map[string][]byte { return map[string][]byte{field: b} }
	for _, row := range []struct {
		name string
		edit map[string][]byte // field → its replacement
		want string            // in the error's text
		is   error             // wrapped beside ErrBadSnapshot, if any
	}{
		{"label count 0", one("labels", uv(0)), "implausible label count 0", nil},
		{"label count 65537", one("labels", uv(1<<16+1)), "implausible label count 65537", nil},
		{"over-long name", one("name 0", str(strings.Repeat("x", 1<<12+1))), "implausible string length 4097", nil},
		{"name *", one("name 0", str("*")), `"*"`, ErrBadLabelName},
		{"duplicate name", one("name 1", at("name 0")), `"knows"`, ErrDuplicateLabel},
		{"bad magic", one("magic", []byte("XXXX")), "bad magic", nil},
		{"bad version", one("version", []byte{2}), "unsupported codec version 2", nil},
		{"unknown method", one("method", str("bogus")), "unknown ordering method", nil},
		{"k 0", one("k", uv(0)), "implausible k 0", nil},
		{"k 17", one("k", uv(17)), "implausible k 17", nil},
		{"sum-based past its multisets", map[string][]byte{"labels": wide, "name 0": nil, "name 1": nil},
			"tabulates more than 1048576 multisets", nil},
		{"domain past int64", map[string][]byte{"labels": wide, "name 0": nil, "name 1": nil, "k": uv(8)},
			"overflows int64", nil},
		{"ranking of another vocabulary", one("ranking length", uv(3)), "implausible ranking length 3", nil},
		{"ranking not a permutation", one("rank 1", at("rank 0")), "invalid ranking order", nil},
		{"domain disagrees with the ordering", one("domain", binary.AppendVarint(nil, domain+1)), "disagrees with ordering", nil},
		{"bucket count 0", one("buckets", uv(0)), "implausible bucket count 0", nil},
		{"bucket count domain+1", one("buckets", uv(uint64(domain)+1)), fmt.Sprintf("implausible bucket count %d", domain+1), nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			var blob []byte
			for _, f := range fields {
				if b, ok := row.edit[f.name]; ok {
					blob = append(blob, b...)
				} else {
					blob = append(blob, f.b...)
				}
			}
			_, err := LoadEstimator(bytes.NewReader(blob))
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(fmt.Sprint(err), row.want) ||
				row.is != nil && !errors.Is(err, row.is) {
				t.Fatalf("LoadEstimator = %v, want ErrBadSnapshot for %s", err, row.want)
			}
		})
	}
}

// TestSavedSynopsisGolden pins the format to a file that can be read:
// testdata/synopsis.golden is Save's output for a small estimator rebuilt
// here from its seed. Save must still write exactly those bytes, and the
// estimator LoadEstimator makes of the committed file must answer every
// path of L_k — Estimate and EstimatePrefix — bit for bit as the rebuilt
// one does. -update rewrites the file; only a change to the format may.
func TestSavedSynopsisGolden(t *testing.T) {
	g := batchTestGraph(t, 44, 30, 3, 120)
	est, err := Build(g, Config{MaxPathLength: 3, Ordering: OrderingLexCard, Buckets: 6})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := est.Save(&got); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "synopsis.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Save wrote %x, the committed file holds %x (rerun with -update only if the format is meant to change)",
			got.Bytes(), want)
	}
	ce, err := LoadEstimator(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range labelPaths(g.Labels(), 3) {
		for _, m := range []struct {
			name          string
			built, loaded func(string) (float64, error)
		}{{"Estimate", est.Estimate, ce.Estimate}, {"EstimatePrefix", est.EstimatePrefix, ce.EstimatePrefix}} {
			w, werr := m.built(q)
			v, verr := m.loaded(q)
			if werr != nil || verr != nil || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s(%q): rebuilt %v (%v), loaded from the file %v (%v)", m.name, q, w, werr, v, verr)
			}
		}
	}
}

// TestSaveLoadAtTheLongestK builds at the longest covered length Build
// accepts, the codec's bound of 16, and loads what Save writes; Build
// refuses one longer, so no estimator saves a blob LoadEstimator refuses.
func TestSaveLoadAtTheLongestK(t *testing.T) {
	g := socialGraph(t)
	est, err := Build(g, Config{MaxPathLength: 16, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := est.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ce, err := LoadEstimator(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := strings.Repeat("knows/likes/", 7) + "knows/knows"
	w, werr := est.Estimate(q)
	v, verr := ce.Estimate(q)
	if werr != nil || verr != nil || v != w || ce.MaxPathLength() != 16 {
		t.Fatalf("Estimate(%q): built %v (%v), loaded %v (%v)", q, w, werr, v, verr)
	}
	if _, err := Build(g, Config{MaxPathLength: 17, Buckets: 5}); err == nil {
		t.Fatal("Build at k = 17 should error")
	}
}
