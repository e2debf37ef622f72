package pathsel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/paths"
)

// TestCompileErrors pins the parser's rejection surface: every malformed
// pattern fails with the right sentinel and a message naming the
// offending segment.
func TestCompileErrors(t *testing.T) {
	g := batchTestGraph(t, 1, 20, 3, 60)
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		pattern string
		want    error
	}{
		{"", ErrEmptyPath},
		{"a//b", ErrBadPattern},   // empty segment
		{"?", ErrBadPattern},      // quantifier without atom
		{"{1,2}", ErrBadPattern},  // quantifier without atom
		{"(|)", ErrBadPattern},    // empty alternation branches
		{"(a|)", ErrBadPattern},   // trailing empty branch
		{"(a", ErrBadPattern},     // unclosed group
		{"a)", ErrBadPattern},     // misplaced parenthesis
		{"((a))", ErrBadPattern},  // nested group
		{"b{3,1}", ErrBadPattern}, // inverted bounds
		{"b{0,0}", ErrBadPattern}, // zero repetitions
		{"b{0}", ErrBadPattern},   // zero repetitions
		{"b{}", ErrBadPattern},    // empty bounds
		{"b{1,2,3}", ErrBadPattern},
		{"b{x}", ErrBadPattern},
		{"b{99999}", ErrBadPattern}, // count too long
		{"b{65}", ErrBadPattern},    // beyond MaxRepetition
		{"a}", ErrBadPattern},       // '}' without '{'
		{"a?", ErrBadPattern},       // whole pattern may match the empty path
		{"a?/b?", ErrBadPattern},
		{"zzz", ErrUnknownLabel},
		{"(a|zzz)", ErrUnknownLabel},
		{"a/b/c/a", ErrPathTooLong},  // concrete, beyond MaxPathLength 3
		{"a{1,4}", ErrPathTooLong},   // repetition reaches length 4
		{"a?/b/c/a", ErrPathTooLong}, // optional still reaches length 4
	}
	for _, tc := range cases {
		if _, err := est.Compile(tc.pattern); !errors.Is(err, tc.want) {
			t.Errorf("Compile(%q): err=%v, want %v", tc.pattern, err, tc.want)
		}
	}
	// Valid corners compile.
	for _, p := range []string{"a", "*", "a|b", "(a|b)", "a?/b", "b{1,3}", "(a|c){2}/b?", "*{1,2}/a"} {
		if _, err := est.Compile(p); err != nil {
			t.Errorf("Compile(%q): unexpected error %v", p, err)
		}
	}
}

// randomRPQPattern draws a random pattern over the label vocabulary:
// 1–3 segments mixing names, groups, wildcards, optionals, and bounded
// repetitions, re-drawn until 1 ≤ MinLen and MaxLen ≤ maxLen.
func randomRPQPattern(rng *rand.Rand, labels []string, maxLen int) string {
	for {
		var segs []string
		minLen, maxTot := 0, 0
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			var atom string
			switch rng.Intn(4) {
			case 0:
				atom = "*"
			case 1:
				a, b := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
				atom = "(" + a + "|" + b + ")"
			default:
				atom = labels[rng.Intn(len(labels))]
			}
			lo, hi := 1, 1
			switch rng.Intn(4) {
			case 0:
				atom += "?"
				lo = 0
			case 1:
				hi = 1 + rng.Intn(2)
				lo = rng.Intn(hi) // may be 0
				atom += "{" + string(rune('0'+lo)) + "," + string(rune('0'+hi)) + "}"
			}
			segs = append(segs, atom)
			minLen += lo
			maxTot += hi
		}
		if minLen >= 1 && maxTot <= maxLen {
			return strings.Join(segs, "/")
		}
	}
}

// TestExprExecuteMatchesTrueSelectivity is the end-to-end property test:
// a compiled RPQ's execution result equals the exact set-semantics
// oracle (union of enumerated expansions) at every worker count, cold
// and warm. Run with -race in CI this also exercises
// the shared-cache adoption path under concurrency.
func TestExprExecuteMatchesTrueSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := batchTestGraph(t, 7, 40, 3, 260)
	patterns := make([]string, 12)
	for i := range patterns {
		patterns[i] = randomRPQPattern(rng, g.Labels(), 4)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		est, err := Build(g, Config{
			MaxPathLength: 4, Buckets: 8,
			Workers: workers, CacheBytes: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range patterns {
			want, err := g.TruePatternSelectivity(p)
			if err != nil {
				t.Fatalf("oracle %q: %v", p, err)
			}
			x, err := est.Compile(p)
			if err != nil {
				t.Fatalf("Compile(%q): %v", p, err)
			}
			for pass := 0; pass < 2; pass++ { // cold then warm
				st, err := x.ExecuteCtx(context.Background())
				if err != nil {
					t.Fatalf("Execute(%q) workers=%d pass=%d: %v", p, workers, pass, err)
				}
				if st.Result != want {
					t.Fatalf("Execute(%q) workers=%d pass=%d: Result=%d, want %d",
						p, workers, pass, st.Result, want)
				}
			}
			// The string entry point answers identically.
			st, err := executeQuery(est, p)
			if err != nil {
				t.Fatalf("ExecuteQuery(%q): %v", p, err)
			}
			if st.Result != want {
				t.Fatalf("ExecuteQuery(%q): Result=%d, want %d", p, st.Result, want)
			}
		}
	}
}

// TestCompileEstimateMatchesEstimatePattern pins that the compiled
// handle's Estimate is exactly what the string entry point reports, and
// that enumerable patterns get the expansion-sum (bag-semantics)
// estimate: the sum of Estimate over the pattern's concrete paths.
// (Exactness under a singleton-bucket budget is pinned separately by
// TestEstimatePatternExactBudget.)
func TestCompileEstimateMatchesEstimatePattern(t *testing.T) {
	g := batchTestGraph(t, 5, 25, 3, 120)
	est, err := Build(g, Config{MaxPathLength: 3, Buckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pattern    string
		expansions []string
	}{
		{"a", []string{"a"}},
		{"a/(b|c)", []string{"a/b", "a/c"}},
		{"a?/b", []string{"b", "a/b"}},
		{"b{1,3}", []string{"b", "b/b", "b/b/b"}},
		{"*/a", []string{"a/a", "b/a", "c/a"}},
	} {
		x, err := est.Compile(tc.pattern)
		if err != nil {
			t.Fatalf("Compile(%q): %v", tc.pattern, err)
		}
		got, err := estimatePattern(est, tc.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got != x.Estimate() {
			t.Fatalf("EstimatePattern(%q)=%f != Expr.Estimate()=%f", tc.pattern, got, x.Estimate())
		}
		var want float64
		for _, q := range tc.expansions {
			e, err := est.Estimate(q)
			if err != nil {
				t.Fatal(err)
			}
			want += e
		}
		if got != want {
			t.Fatalf("EstimatePattern(%q)=%f, want expansion sum %f", tc.pattern, got, want)
		}
	}
}

// naiveDagPlan prices a compiled DAG the way the planner did before it
// kept segment tables — every term of every sum asked of the histogram
// directly, the best plan tree found by exhaustive recursion instead of a
// DP — and returns what a DagPlan reports: Cost, ResultEst and the block
// estimates. A block the executor composes through (one step from the
// graph — a single label, or an element that is not unrolled — after the
// first block) has no relation of its own, so the join after it is charged
// its left input only, and an unrolled element's skip steps are charged the
// running union entering them. Float for float the planner must agree.
func naiveDagPlan(e *Estimator, d *exec.RPQDag) (cost, result float64, ests []float64) {
	n := e.csr.NumVertices()
	// zigzag is the cost of p's zig-zag plan from start: its rightward
	// intermediates, then its leftward ones, the result excluded.
	zigzag := func(p paths.Path, start int) (c float64) {
		for j := start + 1; j <= len(p) && j-start < len(p); j++ {
			c += e.ph.Estimate(p[start:j])
		}
		for i := start - 1; i >= 1; i-- {
			c += e.ph.Estimate(p[i:])
		}
		return c
	}
	var best func(p paths.Path) float64
	best = func(p paths.Path) float64 {
		c := zigzag(p, 0)
		for s := 1; s < len(p); s++ {
			c = min(c, zigzag(p, s))
		}
		for m := 1; m < len(p); m++ {
			c = min(c, best(p[:m])+best(p[m:])+e.ph.Estimate(p[:m])+e.ph.Estimate(p[m:]))
		}
		return c
	}
	var skips, steps []bool // per block: may match ε; is one step from the graph
	for i := 0; i < len(d.Elems); {
		if el := d.Elems[i]; len(el.Labels) != 1 || el.MinRep != 1 || el.MaxRep != 1 {
			var s1, est float64
			for _, l := range el.Labels {
				s1 += e.ph.Estimate(paths.Path{l})
			}
			pow := s1
			for r := 1; r <= el.MaxRep; r++ {
				if r > 1 && len(el.Labels) == 1 {
					power := make(paths.Path, r)
					for j := range power {
						power[j] = el.Labels[0]
					}
					pow = e.ph.Estimate(power)
				} else if r > 1 && n > 0 {
					pow *= s1 / float64(n)
				}
				if r >= max(1, el.MinRep) {
					est += pow
				}
				if r < el.MaxRep && r < max(1, el.MinRep) {
					cost += pow
				} else if r < el.MaxRep {
					cost += est
				}
			}
			ests, skips, steps = append(ests, est), append(skips, el.MinRep == 0), append(steps, el.MaxRep == 1)
			i++
			continue
		}
		var run paths.Path
		for ; i < len(d.Elems) && len(d.Elems[i].Labels) == 1 && d.Elems[i].MinRep == 1 && d.Elems[i].MaxRep == 1; i++ {
			run = append(run, d.Elems[i].Labels[0])
		}
		cost += best(run)
		ests, skips, steps = append(ests, e.ph.Estimate(run)), append(skips, false), append(steps, len(run) == 1)
	}
	size, eps := ests[0], skips[0]
	for i := 1; i < len(ests); i++ {
		if steps[i] {
			cost += size
		} else {
			cost += size + ests[i]
		}
		next := 0.0
		if n > 0 {
			next = size * ests[i] / float64(n)
		}
		if eps {
			next += ests[i]
		}
		if skips[i] {
			next += size
		}
		size, eps = next, eps && skips[i]
	}
	return cost, size, ests
}

// renderRPQ writes a compiled DAG back as a pattern over the vocabulary's
// label names: an element's labels as a name or a group `(a|b)`, and its
// repetition as nothing, `?`, `{m}` or `{m,n}`.
func renderRPQ(v *vocab, d *exec.RPQDag) string {
	var b strings.Builder
	for i, e := range d.Elems {
		if i > 0 {
			b.WriteByte('/')
		}
		names := make([]string, len(e.Labels))
		for j, l := range e.Labels {
			names[j] = v.names[l]
		}
		if len(names) == 1 {
			b.WriteString(names[0])
		} else {
			fmt.Fprintf(&b, "(%s)", strings.Join(names, "|"))
		}
		switch {
		case e.MinRep == 1 && e.MaxRep == 1:
		case e.MinRep == 0 && e.MaxRep == 1:
			b.WriteByte('?')
		case e.MinRep == e.MaxRep:
			fmt.Fprintf(&b, "{%d}", e.MinRep)
		default:
			fmt.Fprintf(&b, "{%d,%d}", e.MinRep, e.MaxRep)
		}
	}
	return b.String()
}

// FuzzRPQParse fuzzes the pattern grammar: Compile must never panic, and
// any pattern it accepts must expose coherent bounds, a plan, and a
// finite estimate, and print back (renderRPQ) as a pattern that compiles
// to the same DAG — and a true RPQ's planned DAG must carry exactly the
// naive planner's estimates.
func FuzzRPQParse(f *testing.F) {
	g := batchTestGraph(f, 13, 20, 3, 80)
	est, err := Build(g, Config{MaxPathLength: 4, Buckets: 4})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"a", "a/b/c", "a/(b|c)/a?/b{1,3}", "*", "a|b", "(|)", "b{3,1}",
		"((a))", "(a", "a)", "a?", "{0,0}", "a//b", "b{65}", "a}b{",
		"a/b/(a|c)", "c{2}/a/b", "a/b/c?/a", "a?/b/c?", "(a|b){1,3}/c",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pattern string) {
		x, err := est.Compile(pattern)
		if err != nil {
			return
		}
		if x.MinLen() < 1 || x.MaxLen() < x.MinLen() || x.MaxLen() > 4 {
			t.Fatalf("Compile(%q): bounds [%d,%d] out of range", pattern, x.MinLen(), x.MaxLen())
		}
		if x.Estimate() < 0 {
			t.Fatalf("Compile(%q): negative estimate %f", pattern, x.Estimate())
		}
		if x.Plan().Description == "" {
			t.Fatalf("Compile(%q): empty plan description", pattern)
		}
		printed := renderRPQ(&est.vocab, x.dag)
		again, err := est.Compile(printed)
		if err != nil {
			t.Fatalf("Compile(%q) prints as %q, which fails: %v", pattern, printed, err)
		}
		if !slices.EqualFunc(again.dag.Elems, x.dag.Elems, func(a, b exec.RPQElem) bool {
			return slices.Equal(a.Labels, b.Labels) && a.MinRep == b.MinRep && a.MaxRep == b.MaxRep
		}) {
			t.Fatalf("Compile(%q) prints as %q, which compiles to %s, not %s", pattern, printed, again.dag.Describe(), x.dag.Describe())
		}
		if _, ok := x.dag.ConcretePath(); ok {
			return
		}
		dp := x.plan.dp
		cost, result, ests := naiveDagPlan(est, x.dag)
		// The fold chain is the tree's left spine down to the first
		// block, whose interval is a run or one element.
		blocks := 1
		for t := dp.Tree; t.Left != nil; t = t.Left {
			if _, run := (&exec.RPQDag{Elems: dp.Elems[t.Lo:t.Hi]}).ConcretePath(); run {
				break
			}
			blocks++
		}
		if dp.Cost != cost || dp.ResultEst != result || blocks != len(ests) {
			t.Fatalf("Compile(%q): plan cost %v result %v over %d blocks, naive %v, %v over %d",
				pattern, dp.Cost, dp.ResultEst, blocks, cost, result, len(ests))
		}
	})
}
