package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// sliceCount is how many equal parts a timed window is cut into: one per
// second, within limits. Each end-to-end timing is computed per slice
// and reported as the median over slices, so a stall (a GC cycle, a
// noisy neighbour) moves the slices it touches, not the reported number.
func sliceCount(dur time.Duration) int {
	return min(max(int(dur/time.Second), 5), 60)
}

// burstShare is the part of every slice given to the host-speed
// reference (see reference.go); the clients run for the rest of it.
const burstShare = 8

// window is what one closed-loop timed window observed.
type window struct {
	elapsed           time.Duration
	attempted, failed int64
	samples           int // operations timed
	// Median over slices, on the reference's scale: each slice's value
	// times (latency) or over (throughput) the host speed around it.
	throughput   float64 // ops/s
	p50us, p99us float64 // µs
	// The same medians as the wall clock read them, and the host's speed.
	rawThroughput, rawP50us, rawP99us float64
	hostSpeed                         float64 // median over slices; 1 is a quiet spell
	beyondP99                         int     // samples beyond p99 in the median slice count
	meanUs                            float64 // mean wall-clock latency over all samples
	tasks, steals                     int64
	parks, respBytes                  int64
	firstErr                          error
	// perSlice keeps the slices' own values, for the result-set file.
	perSlice map[string][]float64
}

// clientLog is one client's record of the window: latencies in
// completion order and, per slice, the index its samples end at and how
// long the client was at work.
type clientLog struct {
	lat    []uint32
	bounds []int
	busy   []time.Duration
	st     opState
	failed int64
	issued int64
	err    error
}

// runSlice sends operations one after another — the next only after the
// previous answer was verified — until work has passed, and finishes the
// one in flight.
func (lg *clientLog) runSlice(s *system, seq *sequence, work time.Duration) {
	start := time.Now()
	end := start
	for {
		i := seq.next()
		t0 := time.Now()
		if t0.Sub(start) >= work {
			break
		}
		err := s.op(&lg.st, i, true)
		end = time.Now()
		lg.issued++
		if err != nil {
			lg.failed++
			if lg.err == nil {
				lg.err = fmt.Errorf("%q: %w", s.pool[i].query, err)
			}
		}
		lg.lat = append(lg.lat, uint32(min(end.Sub(t0), 1<<32-1)))
	}
	lg.bounds = append(lg.bounds, len(lg.lat))
	lg.busy = append(lg.busy, end.Sub(start))
}

// runWindow drives the system in a closed loop for dur and aggregates
// the latencies. The window is a sequence of slices; in each, every
// client runs its own seeded sequence — client c replays that of
// (seed, c) — and then the host-speed reference runs alone, so every
// slice has a reading of the host's speed on both sides.
func runWindow(s *system, ref *hostRef, seed int64, dur time.Duration) window {
	clients, nSlices := s.sp.clientCount(), sliceCount(dur)
	cycle := dur / time.Duration(nSlices)
	burst := cycle / burstShare
	work := cycle - burst
	logs := make([]*clientLog, clients)
	seqs := make([]*sequence, clients)
	for c := range logs {
		// Room for 50k ops/s per client; beyond that append grows it.
		logs[c] = &clientLog{lat: make([]uint32, 0, int(dur.Seconds()*50_000)+1024)}
		seqs[c] = newSequence(len(s.pool), s.sp.zipf, seed, c)
	}
	speeds := make([]kernelSpeeds, nSlices+1)
	start := time.Now()
	speeds[0] = ref.burst(burst)
	for sl := 0; sl < nSlices; sl++ {
		var wg sync.WaitGroup
		for c := range logs {
			wg.Add(1)
			go func(lg *clientLog, seq *sequence) {
				defer wg.Done()
				lg.runSlice(s, seq, work)
			}(logs[c], seqs[c])
		}
		wg.Wait()
		speeds[sl+1] = ref.burst(burst)
	}
	w := window{elapsed: time.Since(start)}

	var tput, p50, p99, rawTput, rawP50, rawP99, speed, chase, ilp []float64
	var beyond []int
	var sumNs float64
	scratch := make([]uint32, 0, 1024)
	for sl := 0; sl < nSlices; sl++ {
		scratch = scratch[:0]
		var rate float64
		for _, lg := range logs {
			lo := 0
			if sl > 0 {
				lo = lg.bounds[sl-1]
			}
			scratch = append(scratch, lg.lat[lo:lg.bounds[sl]]...)
			if n := lg.bounds[sl] - lo; n > 0 {
				rate += float64(n) / lg.busy[sl].Seconds()
			}
		}
		if len(scratch) == 0 {
			continue
		}
		for _, ns := range scratch {
			sumNs += float64(ns)
		}
		slices.Sort(scratch)
		w.samples += len(scratch)
		v50, _ := percentile(scratch, 0.50)
		v99, b := percentile(scratch, 0.99)
		host := between(speeds[sl], speeds[sl+1])
		sp := host.speed()
		speed = append(speed, sp)
		chase, ilp = append(chase, host.chase), append(ilp, host.ilp)
		rawTput = append(rawTput, rate)
		rawP50 = append(rawP50, float64(v50)/1e3)
		rawP99 = append(rawP99, float64(v99)/1e3)
		tput = append(tput, rate/sp)
		p50 = append(p50, float64(v50)/1e3*sp)
		p99 = append(p99, float64(v99)/1e3*sp)
		beyond = append(beyond, b)
	}
	for _, lg := range logs {
		w.attempted += lg.issued
		w.failed += lg.failed
		w.tasks += lg.st.tasks
		w.steals += lg.st.steals
		w.parks += lg.st.parks
		w.respBytes += lg.st.respBytes
		if w.firstErr == nil {
			w.firstErr = lg.err
		}
	}
	w.perSlice = map[string][]float64{"throughput_ops_s": tput, "latency_p50_us": p50, "latency_p99_us": p99,
		"host_speed": speed, "host_chase": chase, "host_ilp": ilp}
	w.throughput, w.p50us, w.p99us = median(tput), median(p50), median(p99)
	w.rawThroughput, w.rawP50us, w.rawP99us, w.hostSpeed = median(rawTput), median(rawP50), median(rawP99), median(speed)
	if len(beyond) > 0 {
		slices.Sort(beyond)
		w.beyondP99 = beyond[len(beyond)/2]
	}
	if w.samples > 0 {
		w.meanUs = sumNs / float64(w.samples) / 1e3
	}
	if w.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %v\n",
			s.sp.name, w.failed, w.attempted, w.firstErr)
	}
	return w
}
