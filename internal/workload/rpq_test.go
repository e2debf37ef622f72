package workload

import (
	"strings"
	"testing"
)

func TestRPQPoolDeterministicAndDistinct(t *testing.T) {
	labels := []string{"a", "b", "c"}
	p1, err := RPQPool(labels, 3, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RPQPool(labels, 3, 40, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != 40 {
		t.Fatalf("pool size %d, want 40", len(p1))
	}
	seen := map[string]bool{}
	for i, p := range p1 {
		if p != p2[i] {
			t.Fatalf("pool not deterministic at %d: %q vs %q", i, p, p2[i])
		}
		if seen[p] {
			t.Fatalf("duplicate pattern %q", p)
		}
		seen[p] = true
		if p == "" || strings.HasPrefix(p, "/") || strings.HasSuffix(p, "/") {
			t.Fatalf("malformed pattern %q", p)
		}
	}
	if _, err := RPQPool(nil, 3, 10, 1); err == nil {
		t.Fatal("empty vocabulary should error")
	}
}

// TestRPQPoolSmallDomain pins the exhaustion behavior: a tiny domain
// yields fewer patterns than asked, not a spin.
func TestRPQPoolSmallDomain(t *testing.T) {
	pool, err := RPQPool([]string{"a"}, 1, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) == 0 || len(pool) >= 1000 {
		t.Fatalf("1-label length-1 domain gave %d patterns", len(pool))
	}
}
