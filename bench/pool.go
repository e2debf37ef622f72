package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/paths"
)

// entry is one distinct query of a workload's pool. The pool is built
// structurally, so the benchmark holds each query both as the text the
// public API parses and as the label ids the per-layer passes hand to
// internal/exec directly.
type entry struct {
	query string         // pattern text, as pathsel.Compile and GET /query take it
	elems []exec.RPQElem // the same pattern, element by element
	path  paths.Path     // non-nil when the pattern is one concrete label path
	want  int64          // exact answer, filled by the oracle (execute and serve workloads)
	est   float64        // reference estimate, filled by the oracle (estimate workload)
}

// rpqShape bounds the patterns rpqPool draws.
type rpqShape struct {
	maxLen    int // longest concrete path a pattern may match (the estimator's k)
	maxRep    int // largest repetition bound
	wildcards int // wildcard segments allowed per pattern
}

// render writes the pattern text of elems over the label vocabulary, in
// the grammar of pathsel.Compile.
func render(elems []exec.RPQElem, labels []string) string {
	segs := make([]string, len(elems))
	for i, e := range elems {
		var atom string
		switch {
		case len(e.Labels) == 1:
			atom = labels[e.Labels[0]]
		case len(e.Labels) == len(labels):
			atom = "*"
		default:
			names := make([]string, len(e.Labels))
			for j, l := range e.Labels {
				names[j] = labels[l]
			}
			atom = "(" + strings.Join(names, "|") + ")"
		}
		switch {
		case e.MinRep == 1 && e.MaxRep == 1:
		case e.MinRep == 0 && e.MaxRep == 1:
			atom += "?"
		case e.MinRep == e.MaxRep:
			atom += fmt.Sprintf("{%d}", e.MaxRep)
		default:
			atom += fmt.Sprintf("{%d,%d}", e.MinRep, e.MaxRep)
		}
		segs[i] = atom
	}
	return strings.Join(segs, "/")
}

func newEntry(elems []exec.RPQElem, labels []string) entry {
	e := entry{query: render(elems, labels), elems: elems}
	if p, ok := (&exec.RPQDag{Elems: elems}).ConcretePath(); ok {
		e.path = p
	}
	return e
}

// drawDistinct calls draw until it has produced n entries with distinct
// text. A duplicate streak means the domain is close to exhausted; the
// pool is then whatever the domain yielded.
func drawDistinct(n int, draw func() entry) []entry {
	seen := make(map[string]bool, n)
	out := make([]entry, 0, n)
	for misses := 0; len(out) < n && misses < 64+16*n; {
		e := draw()
		if seen[e.query] {
			misses++
			continue
		}
		seen[e.query] = true
		out = append(out, e)
	}
	return out
}

// concretePool draws n distinct concrete label paths with lengths uniform
// in [minLen, maxLen] and labels uniform over the vocabulary.
func concretePool(rng *rand.Rand, labels []string, minLen, maxLen, n int) []entry {
	return drawDistinct(n, func() entry {
		elems := make([]exec.RPQElem, minLen+rng.Intn(maxLen-minLen+1))
		for i := range elems {
			elems[i] = exec.RPQElem{Labels: []int{rng.Intn(len(labels))}, MinRep: 1, MaxRep: 1}
		}
		return newEntry(elems, labels)
	})
}

// rpqPool draws n distinct regular path patterns, none of them a plain
// concrete path: one to three segments, each a label, a two-label
// alternation or (while the shape allows) a wildcard, optionally marked
// optional or given a repetition bound. Every pattern matches at least
// one label and nothing longer than sh.maxLen.
func rpqPool(rng *rand.Rand, labels []string, sh rpqShape, n int) []entry {
	return drawDistinct(n, func() entry {
		for {
			var elems []exec.RPQElem
			minLen, maxLen, wild := 0, 0, 0
			for i, segs := 0, 1+rng.Intn(3); i < segs; i++ {
				e := exec.RPQElem{MinRep: 1, MaxRep: 1}
				switch r := rng.Intn(20); {
				case r < 3 && wild < sh.wildcards && len(labels) > 2:
					wild++
					e.Labels = make([]int, len(labels))
					for l := range e.Labels {
						e.Labels[l] = l
					}
				case r < 8:
					a, b := rng.Intn(len(labels)), rng.Intn(len(labels))
					if a == b {
						b = (a + 1) % len(labels)
					}
					e.Labels = []int{a, b}
					sort.Ints(e.Labels)
				default:
					e.Labels = []int{rng.Intn(len(labels))}
				}
				switch r := rng.Intn(20); {
				case r < 4:
					e.MinRep = 0
				case r < 9:
					e.MaxRep = 1 + rng.Intn(sh.maxRep)
					e.MinRep = rng.Intn(e.MaxRep + 1)
				}
				elems = append(elems, e)
				minLen += e.MinRep
				maxLen += e.MaxRep
			}
			if minLen < 1 || maxLen > sh.maxLen {
				continue
			}
			if e := newEntry(elems, labels); e.path == nil {
				return e
			}
		}
	})
}

// interleave merges pools into one ranked pool in a seeded random order,
// so the Zipf head of a mixed workload holds both kinds of query.
func interleave(rng *rand.Rand, pools ...[]entry) []entry {
	var out []entry
	for _, p := range pools {
		out = append(out, p...)
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipf draws ranks 0…n−1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cum []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	var total float64
	for r := range z.cum {
		total += 1 / math.Pow(float64(r+1), s)
		z.cum[r] = total
	}
	for r := range z.cum {
		z.cum[r] /= total
	}
	return z
}

// pick maps a uniform u in [0,1) to a rank.
func (z *zipf) pick(u float64) int {
	r := sort.SearchFloat64s(z.cum, u)
	if r >= len(z.cum) {
		r = len(z.cum) - 1
	}
	return r
}

// sequence is one client's stream of pool indices, a pure function of
// (workload, seed, client): Zipf draws over the ranked pool, or — for the
// round-robin workloads — a seeded permutation of the pool, repeated.
type sequence struct {
	rng  *rand.Rand
	z    *zipf
	perm []int
	i    int
}

func newSequence(poolSize int, zipfS float64, seed int64, client int) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed*1000003 + int64(client)*7919 + 17))}
	if zipfS > 0 {
		s.z = newZipf(poolSize, zipfS)
	} else {
		s.perm = s.rng.Perm(poolSize)
	}
	return s
}

func (s *sequence) next() int {
	if s.z != nil {
		return s.z.pick(s.rng.Float64())
	}
	i := s.perm[s.i%len(s.perm)]
	s.i++
	return i
}

// take returns the next n indices of the sequence.
func (s *sequence) take(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}
