package main

import (
	"math"
	"testing"
	"time"
)

func TestFillCycleVisitsEveryWord(t *testing.T) {
	c := make([]uint32, 1000)
	fillCycle(c, 7)
	p, steps := uint32(0), 0
	for {
		p = c[p]
		steps++
		if p == 0 || steps > len(c) {
			break
		}
	}
	if steps != len(c) {
		t.Errorf("back at word 0 after %d steps, want one cycle of %d", steps, len(c))
	}
}

func TestHostRefBurst(t *testing.T) {
	h, err := newHostRef(2)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if k := h.burst(5 * time.Millisecond); k.chase <= 0 || k.ilp <= 0 || k.speed() <= 0 {
		t.Errorf("burst = %+v, want positive speeds", k)
	}
}

// Times add: a host that runs one kernel at half its nominal rate and
// the other at its nominal rate takes 1 + that kernel's weight as long.
func TestSpeedIsTheWeightedHarmonicMean(t *testing.T) {
	if v := (kernelSpeeds{chase: 1, ilp: 1}).speed(); math.Abs(v-1) > 1e-12 {
		t.Errorf("speed at the nominal rates = %v, want 1", v)
	}
	want := 1 / (1 + refWeights.chase)
	if v := (kernelSpeeds{chase: 0.5, ilp: 1}).speed(); math.Abs(v-want) > 1e-12 {
		t.Errorf("speed with chase at half rate = %v, want %v", v, want)
	}
	if m := between(kernelSpeeds{1, 2}, kernelSpeeds{3, 4}); m != (kernelSpeeds{2, 3}) {
		t.Errorf("between = %+v", m)
	}
}
