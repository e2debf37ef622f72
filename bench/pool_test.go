package main

import (
	"reflect"
	"testing"
)

func TestSequenceIsAFunctionOfSeedAndClient(t *testing.T) {
	for _, zipfS := range []float64{0, 1.2} {
		a := newSequence(300, zipfS, 7, 0).take(500)
		if b := newSequence(300, zipfS, 7, 0).take(500); !reflect.DeepEqual(a, b) {
			t.Errorf("zipf %v: same seed and client gave different sequences", zipfS)
		}
		if b := newSequence(300, zipfS, 8, 0).take(500); reflect.DeepEqual(a, b) {
			t.Errorf("zipf %v: seeds 7 and 8 gave the same sequence", zipfS)
		}
		if b := newSequence(300, zipfS, 7, 1).take(500); reflect.DeepEqual(a, b) {
			t.Errorf("zipf %v: clients 0 and 1 gave the same sequence", zipfS)
		}
	}
}

func TestRoundRobinSequenceCoversThePoolEachCycle(t *testing.T) {
	seen := make(map[int]int)
	for _, i := range newSequence(80, 0, 3, 0).take(160) {
		seen[i]++
	}
	for i := 0; i < 80; i++ {
		if seen[i] != 2 {
			t.Fatalf("entry %d drawn %d times in two cycles, want 2", i, seen[i])
		}
	}
}

func TestZipfPicksLowRanksMoreOften(t *testing.T) {
	z := newZipf(24, 1.2)
	if z.pick(0) != 0 || z.pick(0.999999) != 23 {
		t.Fatalf("pick(0) = %d, pick(~1) = %d; want 0 and 23", z.pick(0), z.pick(0.999999))
	}
	counts := make([]int, 24)
	for _, i := range newSequence(24, 1.2, 1, 0).take(20000) {
		counts[i]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[5] || counts[5] <= counts[23] {
		t.Errorf("draw counts not decreasing with rank: %v", counts)
	}
}

// The pool is the workload's, not the run's: building it twice gives the
// same queries, and every query means to pathsel what its elements say.
func TestPoolsAreFixedAndCompile(t *testing.T) {
	for _, full := range workloads {
		sp := full.reduced()
		g, est, err := buildEstimator(sp)
		if err != nil {
			t.Fatal(err)
		}
		pool := sp.pool(sp, g.Labels())
		if again := sp.pool(sp, g.Labels()); !reflect.DeepEqual(pool, again) {
			t.Errorf("%s: pool differs between two builds", sp.name)
		}
		seen := make(map[string]bool)
		for _, e := range pool {
			if seen[e.query] {
				t.Errorf("%s: duplicate query %q", sp.name, e.query)
			}
			seen[e.query] = true
			x, err := est.Compile(e.query)
			if err != nil {
				t.Errorf("%s: %q does not compile: %v", sp.name, e.query, err)
				continue
			}
			minLen, maxLen := 0, 0
			for _, el := range e.elems {
				minLen += el.MinRep
				maxLen += el.MaxRep
			}
			if x.MinLen() != minLen || x.MaxLen() != maxLen {
				t.Errorf("%s: %q compiles to lengths [%d,%d], elements say [%d,%d]",
					sp.name, e.query, x.MinLen(), x.MaxLen(), minLen, maxLen)
			}
			if (e.path != nil) != (minLen == maxLen && len(e.elems) == minLen && allSingle(e)) {
				t.Errorf("%s: %q: path set = %v disagrees with its elements", sp.name, e.query, e.path != nil)
			}
		}
	}
}

func allSingle(e entry) bool {
	for _, el := range e.elems {
		if len(el.Labels) != 1 || el.MinRep != 1 || el.MaxRep != 1 {
			return false
		}
	}
	return true
}

func TestWarmupSequenceVisitsEveryEntryFirst(t *testing.T) {
	sp := &spec{zipf: 1.2, warmupOps: 48}
	seq := warmupSequence(sp, 24)
	if len(seq) != 48 {
		t.Fatalf("warm-up has %d operations, want 48", len(seq))
	}
	for i := 0; i < 24; i++ {
		if seq[i] != i {
			t.Fatalf("warm-up operation %d is entry %d, want %d", i, seq[i], i)
		}
	}
	if !reflect.DeepEqual(seq, warmupSequence(sp, 24)) {
		t.Error("warm-up sequence is not fixed")
	}
}
