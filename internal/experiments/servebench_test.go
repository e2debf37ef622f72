package experiments

import (
	"testing"
)

// TestRunServeBenchSchema runs the serving bench at a tiny scale and
// pins the report structure the committed BENCH_serve.json and
// cmd/benchdiff's gate consume: a cold and a warm row per concurrency
// level, positive pass timings, latency percentiles on every serve row,
// a speedup ratio only on warm rows.
func TestRunServeBenchSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("perf bench measurement in -short mode")
	}
	rep, err := RunServeBench(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != BenchSchemaVersion {
		t.Fatalf("schema version %d, want %d", rep.SchemaVersion, BenchSchemaVersion)
	}
	byName := map[string][]int{}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Fatalf("non-positive pass timing in %+v", r)
		}
		if r.P50Ns <= 0 || r.P50Ns > r.P95Ns || r.P95Ns > r.P99Ns {
			t.Fatalf("latency percentiles missing or out of order: %+v", r)
		}
		if r.QPS <= 0 {
			t.Fatalf("serve row without throughput: %+v", r)
		}
		byName[r.Name] = append(byName[r.Name], r.Workers)
		switch r.Name {
		case "serve/nocache":
			if r.Speedup != 0 {
				t.Fatalf("nocache row is the baseline and must carry no ratio: %+v", r)
			}
		case "serve/cold", "serve/warm":
			if r.Speedup <= 0 {
				t.Fatalf("%s row missing its speedup vs nocache: %+v", r.Name, r)
			}
		default:
			t.Fatalf("unexpected section %q", r.Name)
		}
	}
	for _, name := range []string{"serve/nocache", "serve/cold", "serve/warm"} {
		if got := len(byName[name]); got != len(serveBenchConcurrencies) {
			t.Fatalf("section %q has %d rows, want one per concurrency level (%d)",
				name, got, len(serveBenchConcurrencies))
		}
		for i, c := range serveBenchConcurrencies {
			if byName[name][i] != c {
				t.Fatalf("section %q row %d at concurrency %d, want %d",
					name, i, byName[name][i], c)
			}
		}
	}
}

// TestServeBenchWarmBeatsCold is the end-to-end sanity check of the
// artifact's claim: the warmed persistent cache must beat the cold
// server even through the HTTP stack under a Zipf trace. The committed
// artifact records the exact ratio; here we only require a genuine win
// to keep the test robust on noisy hosts. It runs at the artifact's own
// graph scale: on a smaller graph an uncached execution — whose result is
// counted, not built — is so close to a cache hit's copy that the HTTP
// stack's noise decides the comparison.
func TestServeBenchWarmBeatsCold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive measurement in -short mode")
	}
	g, err := genServeGraph(0.05)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := serveBenchTrace(g.Labels(), ServeBenchQueryCount, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := serveBenchResults(g, trace, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Name == "serve/warm" && r.Speedup <= 1 {
			t.Fatalf("warm serving pass not faster than cold at all: %+v", r)
		}
	}
}
