package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig runs a workload's reduced twin for a fraction of a second.
func smokeConfig(t *testing.T, full *spec, trace bool) runConfig {
	return runConfig{sp: full.reduced(), seed: 1, dur: 300 * time.Millisecond, trace: trace,
		outDir: t.TempDir(), out: io.Discard}
}

// Every workload, untraced and traced, on its reduced graph: every
// answer verified, /stats agreeing with the client, every metric of the
// run's kind present, and the spans on disk.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, full := range workloads {
		t.Run(full.name, func(t *testing.T) {
			res, err := runTimed(smokeConfig(t, full, false))
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v, %d failed of %d", res.Correct, res.Failed, res.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
					t.Errorf("untraced: %s = %+v (present %v); every end-to-end metric must be positive", d.name, v, ok)
				}
			}

			cfg := smokeConfig(t, full, true)
			res, err = runTraced(cfg)
			// A 0.3 s pass on a loaded test host may fail to reconcile; that
			// is the traced run's own verdict, not a defect of the code paths.
			if err != nil && !(errors.Is(err, errIncorrect) && res.Failed == 0) {
				t.Fatalf("traced: %v", err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("traced: %d failed of %d", res.Failed, res.Attempted)
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("traced: %s = %+v (present %v)", d.name, v, ok)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			absent := func(name string) bool { return res.Metrics[name].Value == 0 }
			switch full.kind {
			case kindEstimate:
				for _, name := range []string{"exec.run_us", "bitset.compose_ns_per_pair", "sched.tasks_per_op",
					"relcache.hit_rate", "serve.handler_us", "pathsel.execute_us"} {
					if !absent(name) {
						t.Errorf("estimate workload reports %s = %v; it runs no such layer", name, res.Metrics[name].Value)
					}
				}
				if absent("pathsel.compile_us") || absent("exec.plan_ns") || absent("core.estimate_ns") {
					t.Error("estimate workload lacks its own layers' times")
				}
			case kindExecute:
				if absent("exec.run_us") || absent("exec.work_pairs") || absent("bitset.compose_ns_per_pair") || !absent("serve.handler_us") {
					t.Error("execute workload: executor and kernel metrics must be present, serve absent")
				}
			case kindServe:
				if absent("serve.handler_us") || absent("serve.transport_us") || absent("relcache.get_ns") || absent("serve.response_bytes") {
					t.Error("serve workload lacks serve or cache metrics")
				}
			}
			if st, err := os.Stat(traceFile(cfg.outDir, cfg.sp.name)); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// A wrong expected answer must be counted and must fail the run.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	for _, name := range []string{"estimate_stream", "serve_hot"} {
		cfg := smokeConfig(t, workloadByName(name), false)
		cfg.corrupt = true
		var out, errs bytes.Buffer
		cfg.out = &out
		if code := runSpecs([]*spec{cfg.sp}, cfg, "", &errs); code == 0 {
			t.Errorf("%s: exit code 0 with a corrupted oracle", name)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not a result: %v", name, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed > res.Attempted {
			t.Errorf("%s: correct=%v with %d failed of %d; want incorrect with failures", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-seconds", "0"}, {"-trace", "2"}, {"-compare", "only-one"}, {"-bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// workloads.go; the two must say the same.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Paths) != 1 || bm.Paths[0] != "bench" || bm.RunSeconds < 1 || bm.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bm.Paths, bm.RunSeconds)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q differs from workloads.go or is not one short line", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
		}
		for i, g := range got {
			d := want[i]
			better := "higher"
			if d.lowerBetter {
				better = "lower"
			}
			if g.Name != d.name || g.Unit != d.unit || g.Better != better {
				t.Errorf("%s %d: %+v, metrics.go says %s %s %s", kind, i, g, d.name, d.unit, better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound %v, metrics.go says %v", kind, g.Name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEnd, true)
	check("per_layer", bm.PerLayer, perLayer, false)
}
