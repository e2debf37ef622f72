package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a module, or — named
// "op" — one whole operation of a traced level. Spans of one operation
// share Op; Parent names the span that caused this one. A traced level
// is a separate pass over the same operations, so a span's parent may
// have been recorded at another level.
type span struct {
	Level   string `json:"level"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// rootSpan names the span that covers one whole operation.
const rootSpan = "op"

// recorder buffers spans in memory until the run ends. A nil recorder
// records nothing, which is how warm-up replays a level untimed.
type recorder struct {
	epoch time.Time
	level string
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// now is the recorder's clock, in ns since its epoch.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

func (r *recorder) add(op int, name, parent string, start, end int64) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{Level: r.level, Op: op, Name: name, Parent: parent, StartNs: start, EndNs: end})
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opGroup identifies the spans of one operation at one level.
type opGroup struct {
	level string
	op    int
}

// selfTimes returns, for each span, its duration minus the time its
// child spans cover. A span's children are the spans of the same level
// and operation that name it as parent; a span whose named
// parent was not recorded in that group is a child of the group's root
// span, so the root's self time is exactly the part of the operation
// spent in no module call at that level.
func selfTimes(spans []span) []int64 {
	names := make(map[opGroup]map[string]int) // span index by name, per group
	for i, sp := range spans {
		g := opGroup{sp.Level, sp.Op}
		if names[g] == nil {
			names[g] = make(map[string]int)
		}
		if _, dup := names[g][sp.Name]; !dup {
			names[g][sp.Name] = i
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] += sp.EndNs - sp.StartNs
		if sp.Name == rootSpan {
			continue
		}
		in := names[opGroup{sp.Level, sp.Op}]
		parent, ok := in[sp.Parent]
		if !ok || parent == i {
			if parent, ok = in[rootSpan]; !ok {
				continue
			}
		}
		self[parent] -= sp.EndNs - sp.StartNs
	}
	return self
}

// unattributedShare is, per level that recorded module calls at all, the
// root spans' summed self time over their summed duration.
func unattributedShare(spans []span) map[string]float64 {
	self := selfTimes(spans)
	selfSum, durSum := make(map[string]int64), make(map[string]int64)
	calls := make(map[string]bool)
	for i, sp := range spans {
		if sp.Name == rootSpan {
			selfSum[sp.Level] += self[i]
			durSum[sp.Level] += sp.EndNs - sp.StartNs
		} else {
			calls[sp.Level] = true
		}
	}
	out := make(map[string]float64, len(calls))
	for level := range calls {
		if d := durSum[level]; d > 0 {
			out[level] = float64(selfSum[level]) / float64(d)
		}
	}
	return out
}

// spanKey selects the spans of one call site: a name under a parent at
// a level.
type spanKey struct{ level, parent, name string }

// perOp sums the selected spans' durations per operation, in ns.
func perOp(spans []span, k spanKey, ops int) []float64 {
	out := make([]float64, ops)
	for _, sp := range spans {
		if sp.Level == k.level && sp.Name == k.name && sp.Parent == k.parent && sp.Op < ops {
			out[sp.Op] += float64(sp.EndNs - sp.StartNs)
		}
	}
	return out
}
