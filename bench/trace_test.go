package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// One operation, nested three deep, plus a span whose parent was timed
// at another level and so hangs off the root:
//
//	op            [0, 100]
//	  a           [10, 60]
//	    a.child   [20, 50]
//	  b           [60, 90]   parent "elsewhere"
func syntheticSpans() []span {
	return []span{
		{Level: "l", Op: 0, Name: "a.child", Parent: "a", StartNs: 20, EndNs: 50},
		{Level: "l", Op: 0, Name: "a", Parent: rootSpan, StartNs: 10, EndNs: 60},
		{Level: "l", Op: 0, Name: "b", Parent: "elsewhere", StartNs: 60, EndNs: 90},
		{Level: "l", Op: 0, Name: rootSpan, StartNs: 0, EndNs: 100},
		// A second operation and a second level must not mix in.
		{Level: "l", Op: 1, Name: "a", Parent: rootSpan, StartNs: 200, EndNs: 240},
		{Level: "l", Op: 1, Name: rootSpan, StartNs: 200, EndNs: 250},
		{Level: "bare", Op: 0, Name: rootSpan, StartNs: 0, EndNs: 70},
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(syntheticSpans())
	want := []int64{
		30,            // a.child: no children
		50 - 30,       // a minus a.child
		30,            // b
		100 - 50 - 30, // op minus a and b
		40,            // second operation's a
		50 - 40,       // second operation's op
		70,            // the bare level's op
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestUnattributedShareSkipsLevelsWithoutCalls(t *testing.T) {
	got := unattributedShare(syntheticSpans())
	want := map[string]float64{"l": float64(20+10) / float64(100+50)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("unattributedShare = %v, want %v", got, want)
	}
}

func TestPerOpSumsACallSite(t *testing.T) {
	spans := append(syntheticSpans(),
		span{Level: "l", Op: 1, Name: "a", Parent: rootSpan, StartNs: 240, EndNs: 245},
		span{Level: "l", Op: 1, Name: "a", Parent: "other", StartNs: 0, EndNs: 1000})
	got := perOp(spans, spanKey{"l", rootSpan, "a"}, 2)
	if want := []float64{50, 45}; !reflect.DeepEqual(got, want) {
		t.Errorf("perOp = %v, want %v", got, want)
	}
}

func TestLayerTimesReconcile(t *testing.T) {
	sp := &spec{kind: kindServe}
	build := func(exec int64) []span {
		return []span{
			{Level: levelUntraced, Name: rootSpan, EndNs: 100_000},
			{Level: levelClient, Name: rootSpan, EndNs: 102_000},
			{Level: levelClient, Name: "client.roundtrip", Parent: rootSpan, EndNs: 100_000},
			{Level: levelHandler, Name: "serve.handler", Parent: "client.roundtrip", EndNs: 40_000},
			{Level: levelPathsel, Name: "pathsel.compile", Parent: "serve.handler", EndNs: 5_000},
			{Level: levelPathsel, Name: "pathsel.execute", Parent: "serve.handler", StartNs: 5_000, EndNs: 35_000},
			{Level: levelExec, Name: "exec.plan", Parent: "pathsel.compile", EndNs: 3_000},
			{Level: levelExec, Name: "exec.plan", Parent: "pathsel.execute", EndNs: 2_000},
			{Level: levelExec, Name: "exec.run", Parent: "pathsel.execute", StartNs: 2_000, EndNs: 2_000 + exec},
		}
	}
	m := make(map[string]float64)
	if err := layerTimes(sp, build(25_000), 1, m); err != nil {
		t.Fatalf("reconciling levels rejected: %v", err)
	}
	for name, want := range map[string]float64{
		"serve.transport_us": 60, "serve.handler_us": 40, "serve.self_us": 5,
		"pathsel.compile_us": 5, "pathsel.compile_self_us": 2,
		"pathsel.execute_us": 30, "pathsel.execute_self_us": 3,
		"exec.plan_ns": 2000, "exec.run_us": 25,
		"trace.overhead_share": 0.02, "trace.unattributed_share": 2_000.0 / 102_000,
	} {
		if got := m[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Transport, serve self, compile and execute add up to the round trip.
	if sum := m["serve.transport_us"] + m["serve.self_us"] + m["pathsel.compile_us"] + m["pathsel.execute_us"]; sum != 100 {
		t.Errorf("layers sum to %v us, want the 100 us round trip", sum)
	}
	// An executor that takes longer than the ExecuteCtx that calls it.
	if err := layerTimes(sp, build(40_000), 1, make(map[string]float64)); err == nil {
		t.Error("children exceeding their parent by a third reconciled")
	}
}

func TestWriteJSONL(t *testing.T) {
	r := newRecorder()
	r.level = "client"
	r.add(3, "client.roundtrip", rootSpan, 10, 90)
	r.add(3, rootSpan, "", 10, 100)
	var none *recorder
	none.add(0, "ignored", "", none.now(), none.now()) // a nil recorder records nothing
	path := filepath.Join(t.TempDir(), "out", "w.trace.jsonl")
	if err := r.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		got = append(got, sp)
	}
	if !reflect.DeepEqual(got, r.spans) {
		t.Errorf("read back %v, wrote %v", got, r.spans)
	}
}
