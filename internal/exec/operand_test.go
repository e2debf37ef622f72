package exec

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
)

// A label is an operand, not a relation: these tests pin what must not
// show when a leaf's start label and a fold's label sets are read from the
// graph instead of copied out of it first — the budget boundary, the
// sharding decision and the allocation count. Answers are pinned by the
// equivalence suites and bitset's FuzzComposeCSREquivalence and
// FuzzComposeUnionEquivalence.

// skewedGraph has a frequent label 0 and a rare label 1, so the relation
// of label 0 is far larger than that of 0/1 or 1/0.
func skewedGraph() *graph.CSR {
	rng := rand.New(rand.NewSource(3))
	g := graph.New(300, 2)
	for i := 0; i < 4000; i++ {
		g.AddEdge(rng.Intn(300), 0, rng.Intn(300))
	}
	for i := 0; i < 50; i++ {
		g.AddEdge(rng.Intn(300), 1, rng.Intn(300))
	}
	return g.Freeze()
}

// TestContractBudgetFirstStep pins the price of a relation that is never
// built: a length-2 path whose start label's relation alone is over
// MaxResultBytes is killed at the byte the built relation's clone size put
// the boundary at — one byte less dies, that many survives — from either
// end and in every threshold regime, leaking nothing.
func TestContractBudgetFirstStep(t *testing.T) {
	g := skewedGraph()
	for _, density := range []float64{1, 0, 1e-9} {
		size := int64(bitset.HybridFromCSR(g.LabelOperand(0), density).CloneMemSize())
		for start, p := range []paths.Path{{0, 1}, {1, 0}} { // label 0 is the start label of both
			for _, keep := range []bool{true, false} {
				for _, budget := range []int64{size - 1, size} {
					pool := NewRelPool(g.NumVertices(), density)
					opt := Options{DensityThreshold: density, Workers: 1, Pool: pool, Cancel: &Canceller{},
						KeepResult: keep, MaxResultBytes: budget}
					rel, _, err := Run(g, startPlan(p, start), opt)
					if budget < size && (rel != nil || !errors.Is(err, ErrBudgetExceeded)) {
						t.Errorf("density %v start %d keep=%t: %d B under a start label of %d B: relation=%t err=%v, want ErrBudgetExceeded",
							density, start, keep, budget, size, rel != nil, err)
					}
					if budget == size && err != nil {
						t.Errorf("density %v start %d keep=%t: a budget of the start label's %d B: %v", density, start, keep, size, err)
					}
					pool.Put(rel)
					if n := pool.InUse(); n != 0 {
						t.Errorf("density %v start %d keep=%t: %d pooled relations leaked", density, start, keep, n)
					}
				}
			}
		}
	}
}

// TestFirstStepShardsAsTheBaseWould pins the sharding decision of a leaf's
// first step to the numbers the never-built base would have reported — its
// sources and pairs, which the graph knows — in both directions: the left
// rows are p[0]'s CSR rows either way, composed rightward with p[1] or,
// leftward, with the start label p[1]. The answer is bit-identical to the
// dense reference at every worker count.
func TestFirstStepShardsAsTheBaseWould(t *testing.T) {
	g := randomGraph(5, 300, 1, 9000)
	p := paths.Path{0, 0}
	dense, _ := oracle.ExecuteDense(g, p, oracle.Forward)
	a := g.LabelOperand(0)
	base := bitset.HybridFromCSR(a, 0)
	if len(a.Active) != base.Rows().Len() {
		t.Fatalf("operand lists %d sources, its relation has %d", len(a.Active), base.Rows().Len())
	}
	for start := range p {
		for workers := 1; workers <= 8; workers++ {
			want := int64(shardGrain.shards(base.Rows().Len(), base.Pairs(), workers))
			if want == 1 {
				want = 0 // a sequential step never reaches the scheduler
			} else if workers == 4 && want < 2 {
				t.Fatal("the first step of this graph should shard on 4 workers")
			}
			rel, st := runPlan(t, g, p, start, Options{Workers: workers})
			if !oracle.EqualRelation(rel, dense) {
				t.Fatalf("start %d workers %d: differs from the dense reference", start, workers)
			}
			if st.Sched.Tasks != want || st.Intermediates[0] != base.Pairs() {
				t.Fatalf("start %d workers %d: %d tasks over an input of %d pairs, want %d over %d",
					start, workers, st.Sched.Tasks, st.Intermediates[0], want, base.Pairs())
			}
		}
	}
}

// TestOperandStepsAllocateNothing pins the pooled steady state of the
// steps that read the graph: a leaf's first step from either end, a fold
// through an alternation, and a fold step with each identity term — eps
// after an optional first label, skip through an optional last one — built
// and counted, allocate nothing once the core's stepper and the pool's
// relations exist — the operand list lives in the stepper, not on the
// heap.
func TestOperandStepsAllocateNothing(t *testing.T) {
	g := randomGraph(3, 300, 4, 3000)
	label, optional := RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: 1}, RPQElem{Labels: []int{1}, MinRep: 0, MaxRep: 1}
	alt := zeroPlan(g, &RPQDag{Elems: []RPQElem{label, {Labels: []int{1, 2}, MinRep: 1, MaxRep: 1}}})
	eps := zeroPlan(g, &RPQDag{Elems: []RPQElem{optional, label}})
	skip := zeroPlan(g, &RPQDag{Elems: []RPQElem{label, optional}})
	run01 := PathDag(paths.Path{0, 1}).Elems
	for _, keep := range []bool{true, false} {
		opt, pool, _ := checkedOptions(g.NumVertices(), 1)
		opt.KeepResult = keep
		x := newCore(g, opt)
		for name, node := range map[string]func() (*bitset.HybridRelation, error){
			"first step rightward": func() (*bitset.HybridRelation, error) { return x.leaf(run01, 0, true) },
			"first step leftward":  func() (*bitset.HybridRelation, error) { return x.leaf(run01, 1, true) },
			"label/(a|b)":          func() (*bitset.HybridRelation, error) { return x.node(alt.Elems, alt.Tree, true) },
			"a?/label (eps)":       func() (*bitset.HybridRelation, error) { return x.node(eps.Elems, eps.Tree, true) },
			"label/a? (skip)":      func() (*bitset.HybridRelation, error) { return x.node(skip.Elems, skip.Tree, true) },
		} {
			run := func() {
				rel, err := node()
				if err != nil || (rel != nil) != keep {
					t.Fatalf("%s keep=%t: relation=%t err=%v", name, keep, rel != nil, err)
				}
				x.drop(rel)
				x.ints = x.ints[:0]
			}
			run() // builds the stepper, grows the relations' rows
			if n := testing.AllocsPerRun(50, run); n != 0 {
				t.Errorf("%s keep=%t: %v allocations a run in steady state, want 0", name, keep, n)
			}
		}
		if pool.InUse() != 0 {
			t.Errorf("keep=%t: %d relations still checked out", keep, pool.InUse())
		}
	}
}

// TestFoldRecordsNoInputItNeverBuilt pins what a composed-through block
// shows in Stats: the step's one input, the prefix — the block has no
// relation of its own to record.
func TestFoldRecordsNoInputItNeverBuilt(t *testing.T) {
	g := testGraph(t)
	est := EstimatorFunc(func(p paths.Path) float64 { return float64(paths.Selectivity(g, p)) })
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	for _, c := range []struct {
		d    *RPQDag
		want int // recorded intermediates
	}{
		// a/b, then through (a|c): a's frequency, a/b.
		{&RPQDag{Elems: []RPQElem{label(0), label(1), {Labels: []int{0, 2}, MinRep: 1, MaxRep: 1}}}, 2},
		// (a|b) built as the first block, then through c.
		{&RPQDag{Elems: []RPQElem{{Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}, label(2)}}, 1},
		// a, through b? with its skip term, through c.
		{&RPQDag{Elems: []RPQElem{label(0), {Labels: []int{1}, MinRep: 0, MaxRep: 1}, label(2)}}, 2},
		// a? leaves the prefix possibly empty: b's eps term is one more
		// target of the step through it, so b is still not built.
		{&RPQDag{Elems: []RPQElem{{Labels: []int{0}, MinRep: 0, MaxRep: 1}, label(1)}}, 1},
	} {
		dp := Planner{Est: est}.Plan(c.d, g.NumVertices())
		_, st, err := Run(g, dp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Intermediates) != c.want {
			t.Errorf("%s: intermediates %v, want %d of them", c.d.Describe(), st.Intermediates, c.want)
		}
		if want := expansionUnion(t, g, c.d, Options{}).Pairs(); st.Result != want {
			t.Errorf("%s: result %d, want %d", c.d.Describe(), st.Result, want)
		}
	}
}
