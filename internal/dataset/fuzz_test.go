package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList asserts the loader never panics and, when it succeeds,
// produces a graph that survives a write/read round trip. Runs its seed
// corpus as a normal test; `go test -fuzz=FuzzReadEdgeList ./internal/dataset`
// explores further.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"% comment only\n",
		"1 2 a\n2 3 b\n",
		"1 2\n",
		"x y z\n",
		"1 2 a\n1 2 a\n", // duplicate edge
		"9999999 1 l\n",  // sparse ids
		"1 1 self\n",     // self loop
		"1 2 a b c\n",    // extra fields ignored? (no: field 3 only)
		"-5 3 neg\n",     // negative id
		strings.Repeat("1 2 a\n", 100),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g.Freeze()); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed edge count %d → %d", g.NumEdges(), g2.NumEdges())
		}
		if g2.NumLabels() != g.NumLabels() {
			t.Fatalf("round trip changed label count %d → %d", g.NumLabels(), g2.NumLabels())
		}
	})
}
