package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "latency_p50_us", lowerBetter: true, bound: 0.10}
	higher := metricDef{name: "throughput_ops_s", lowerBetter: false, bound: 0.10}
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center, center * 1.005}
	}
	for _, tc := range []struct {
		name       string
		d          metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, steady(100), steady(101), verdictOK},
		{"slower", lower, steady(100), steady(115), verdictRegressed},
		{"faster", lower, steady(100), steady(85), verdictImproved},
		{"less throughput", higher, steady(1000), steady(850), verdictRegressed},
		{"more throughput", higher, steady(1000), steady(1150), verdictImproved},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 125}, steady(100), verdictUnresolved},
		{"single runs", lower, []float64{100}, []float64{104}, verdictOK},
	} {
		if got, _ := verdict(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		for seed := int64(1); seed <= 3; seed++ {
			res := result{Workload: "serve_hot", Seed: seed, Correct: true, Attempted: 10, Metrics: map[string]measured{
				"latency_p50_us":   {p50 + float64(seed)/10, "us"},
				"throughput_ops_s": {12000, "ops/s"},
			}}
			if err := appendResult(path, res); err != nil {
				t.Fatal(err)
			}
		}
		// A traced run's line is not part of the comparison.
		if err := appendResult(path, result{Workload: "serve_hot", Trace: true, Correct: true}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 66), write("same.jsonl", 67), write("slow.jsonl", 90)
	var out, errs bytes.Buffer
	if code := compareFiles(a, same, &out, &errs); code != 0 {
		t.Errorf("A/A comparison exits %d:\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "latency_p50_us") || strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("unexpected A/A table:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(a, slow, &out, &errs); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("regression exits %d with table:\n%s", code, out.String())
	}
	if code := compareFiles(a, filepath.Join(dir, "missing.jsonl"), &out, &errs); code != 2 {
		t.Errorf("missing file exits %d, want 2", code)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := compareFiles(a, filepath.Join(dir, "bad.jsonl"), &out, &errs); code != 2 {
		t.Errorf("malformed file exits %d, want 2", code)
	}
}
