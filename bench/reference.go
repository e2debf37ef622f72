package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference.
//
// This benchmark runs on a few cores of a shared host whose speed moves
// by 15–30 % in spells of a minute or more: neighbours contend for the
// shared cache and the memory channels (a dependent load that misses the
// private caches takes up to twice as long) and the cores' clock moves
// (register-only code runs up to a fifth slower). Such a spell is longer
// than a run, so no statistic inside one run removes it, and two runs of
// the same commit a few minutes apart differ by more than any bound
// worth having.
//
// So every timed stretch is bracketed by bursts of a fixed computation
// that belongs to the benchmark, calls nothing of the program and
// allocates nothing, and each timing is reported as it would read on a
// host running that computation at its nominal speed:
//
//	latency × speed, throughput ÷ speed, set-up time × speed,
//	speed = the reference's rate, before and after, over its nominal rate.
//
// A change to the program moves a reported number by the same factor it
// moves the wall clock; a slow spell of the host moves the wall clock and
// the reference together and, to first order, not the reported number.
//
// The reference has two kernels, timed apart, because a neighbour does
// not slow every kind of code alike:
//
//   - chase: dependent loads through a random cycle over chaseWords words,
//     a working set no private cache and no TLB holds — what a contended
//     last-level cache and busy memory channels slow;
//   - ilp: four independent multiply-add chains with loads from a table
//     the first-level cache holds and an unpredictable branch — what a
//     lower clock and a busy sibling hardware thread slow.
const (
	chaseWords = 4 << 20 // 16 MiB per thread
	tableWords = 4 << 10 // 16 KiB per thread
	// Steps per round; a round of the two kernels takes about 0.1 ms.
	chaseSteps = 600
	ilpSteps   = 24_000
	// refBurst is the length of a burst that brackets a set-up; inside a
	// window the burst is a fixed share of the slice.
	refBurst = 100 * time.Millisecond
)

// kernelSpeeds is one reading of the host: each kernel's steps per
// second over its nominal rate, the mean of all threads.
type kernelSpeeds struct{ chase, ilp float64 }

// nominal is the kernels' steps per second and thread on this host in a
// quiet spell. It only fixes the scale the numbers are reported on.
var nominal = kernelSpeeds{chase: 9.5e6, ilp: 600e6}

// refWeights is the share of a nominal reference second each kernel
// takes: the mix that, on this host, slows in a spell by as much as the
// workloads do. README.md has the measurements behind it.
var refWeights = kernelSpeeds{chase: 0.4, ilp: 0.6}

// speed folds a reading into one number: how fast the host runs the
// weighted mix, 1 at the nominal rates. Times add, so it is the weighted
// harmonic mean of the kernels' speeds.
func (k kernelSpeeds) speed() float64 {
	return 1 / (refWeights.chase/k.chase + refWeights.ilp/k.ilp)
}

// between is the reading halfway between two.
func between(a, b kernelSpeeds) kernelSpeeds {
	return kernelSpeeds{(a.chase + b.chase) / 2, (a.ilp + b.ilp) / 2}
}

// hostRef holds the reference's working sets, one per CPU. The cycles
// lie outside the Go heap so that the collector's pacing — which is part
// of what the workloads measure — is the same as without them.
type hostRef struct {
	threads []*refThread
	mem     [][]byte
}

// refThread carries one thread's place in its cycle and its registers
// from one burst to the next, so that no burst starts on words the
// previous one left in the cache.
type refThread struct {
	cycle []uint32
	table [tableWords]uint32
	pos   uint32
	regs  [5]uint64 // four chains and the sum the loads feed
}

func newHostRef(threads int) (*hostRef, error) {
	h := &hostRef{}
	for t := 0; t < threads; t++ {
		b, err := syscall.Mmap(-1, 0, chaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("host reference: %w", err)
		}
		h.mem = append(h.mem, b)
		th := &refThread{cycle: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), chaseWords)}
		fillCycle(th.cycle, uint64(t))
		x := uint64(t) + 1
		for i := range th.table {
			x = xorshift(x)
			th.table[i] = uint32(x)
		}
		for i := range th.regs {
			x = xorshift(x)
			th.regs[i] = x
		}
		h.threads = append(h.threads, th)
	}
	return h, nil
}

// fillCycle makes c one random cycle through all its words (Sattolo's
// shuffle), so that following c[p] from any word visits every other
// before it returns: no prefetcher predicts the next load.
func fillCycle(c []uint32, seed uint64) {
	for i := range c {
		c[i] = uint32(i)
	}
	x := 0x9E3779B97F4A7C15 + seed
	for i := len(c) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
}

func (h *hostRef) close() {
	for _, b := range h.mem {
		_ = syscall.Munmap(b) // nothing reads the mapping after this, and the process ends soon
	}
	h.mem, h.threads = nil, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// round runs each kernel once and returns the time each took.
func (th *refThread) round() (chase, ilp time.Duration) {
	t0 := time.Now()
	c, p := th.cycle, th.pos
	for i := 0; i < chaseSteps; i++ {
		p = c[p]
	}
	th.pos = p
	t1 := time.Now()

	const mul, inc = 6364136223846793005, 1442695040888963407
	a, b, d, e, s := th.regs[0], th.regs[1], th.regs[2], th.regs[3], th.regs[4]
	tbl := &th.table
	for i := 0; i < ilpSteps; i += 4 {
		a = a*mul + inc
		b = b*mul + inc
		d = d*mul + inc
		e = e*mul + inc
		s += uint64(tbl[a>>52]) + uint64(tbl[b>>52]) + uint64(tbl[d>>52])
		if e>>63 == 0 { // a coin flip the predictor cannot learn
			s ^= uint64(tbl[e>>52])
		}
	}
	th.regs = [5]uint64{a, b, d, e, s}
	return t1.Sub(t0), time.Since(t1)
}

// burst runs the reference on every thread at once for d and returns the
// reading.
func (h *hostRef) burst(d time.Duration) kernelSpeeds {
	readings := make([]kernelSpeeds, len(h.threads))
	var wg sync.WaitGroup
	for t, th := range h.threads {
		wg.Add(1)
		go func(t int, th *refThread) {
			defer wg.Done()
			var chase, ilp time.Duration
			rounds := 0
			for t0 := time.Now(); time.Since(t0) < d; rounds++ {
				c, i := th.round()
				chase, ilp = chase+c, ilp+i
			}
			n := float64(rounds)
			readings[t] = kernelSpeeds{
				chase: n * chaseSteps / chase.Seconds() / nominal.chase,
				ilp:   n * ilpSteps / ilp.Seconds() / nominal.ilp,
			}
		}(t, th)
	}
	wg.Wait()
	var sum kernelSpeeds
	for _, r := range readings {
		sum.chase += r.chase
		sum.ilp += r.ilp
	}
	n := float64(len(readings))
	return kernelSpeeds{sum.chase / n, sum.ilp / n}
}
