package pathsel

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/paths"
)

// This file is the public regular-path-query surface: the RPQ grammar
// parser and the parse-once query handle (Compile → *Expr) the string
// entry points wrap.
//
// Grammar, per '/'-separated segment:
//
//	atom:        name | * | (a|b|c) | a|b|c
//	quantifier:  ε | ? | {m} | {m,n}      (0 ≤ m ≤ n, 1 ≤ n ≤ 64)
//
// `*` is the whole label vocabulary, bare alternation `a|b` is the
// legacy pattern syntax (equivalent to the grouped form), `?` is {0,1},
// and a quantifier binds to the whole segment atom: `(a|b){2}` matches
// any two-step path whose steps are each a or b. A pattern that could
// match the empty path (every segment optional) is rejected — the empty
// path's relation is the identity, which is never what a selectivity
// query means.

// compileRPQ parses a pattern into the execution layer's expression
// DAG. Errors wrap the package sentinels: ErrEmptyPath for an empty
// pattern, ErrUnknownLabel for unresolvable names, ErrBadPattern for
// grammar violations (empty segments or branches, unclosed or nested
// groups, malformed or inverted repetition bounds, stacked quantifiers,
// all-optional patterns).
func (v *vocab) compileRPQ(pattern string) (*exec.RPQDag, error) {
	if pattern == "" {
		return nil, fmt.Errorf("%w: empty pattern", ErrEmptyPath)
	}
	segs := strings.Split(pattern, "/")
	d := &exec.RPQDag{Elems: make([]exec.RPQElem, 0, len(segs))}
	for _, seg := range segs {
		e, err := v.parseRPQElem(seg, pattern)
		if err != nil {
			return nil, err
		}
		d.Elems = append(d.Elems, e)
	}
	if d.MinLen() == 0 {
		return nil, fmt.Errorf("%w: pattern %q may match the empty path (every segment optional)",
			ErrBadPattern, pattern)
	}
	return d, nil
}

// parseRPQElem parses one '/'-separated segment into an element.
func (v *vocab) parseRPQElem(seg, pattern string) (exec.RPQElem, error) {
	bad := func(format string, args ...any) (exec.RPQElem, error) {
		return exec.RPQElem{}, fmt.Errorf("%w: segment %q in pattern %q: %s",
			ErrBadPattern, seg, pattern, fmt.Sprintf(format, args...))
	}
	atom, minRep, maxRep := seg, 1, 1
	switch {
	case strings.HasSuffix(atom, "?"):
		atom, minRep = atom[:len(atom)-1], 0
	case strings.HasSuffix(atom, "}"):
		i := strings.LastIndex(atom, "{")
		if i < 0 {
			return bad("'}' without '{'")
		}
		bounds := strings.Split(atom[i+1:len(atom)-1], ",")
		atom = atom[:i]
		if len(bounds) > 2 {
			return bad("repetition bounds need one or two counts")
		}
		var ok bool
		if minRep, ok = parseCount(bounds[0]); !ok {
			return bad("repetition bound %q is not a count", bounds[0])
		}
		maxRep = minRep
		if len(bounds) == 2 {
			if maxRep, ok = parseCount(bounds[1]); !ok {
				return bad("repetition bound %q is not a count", bounds[1])
			}
		}
		switch {
		case maxRep < minRep:
			return bad("inverted repetition bounds {%d,%d}", minRep, maxRep)
		case maxRep < 1:
			return bad("zero repetitions match nothing")
		case maxRep > exec.MaxRepetition:
			return bad("repetition bound %d exceeds %d", maxRep, exec.MaxRepetition)
		}
	}
	if strings.HasSuffix(atom, "?") || strings.HasSuffix(atom, "}") {
		// No label name ends in either (addressable refuses them), so what
		// is left is a second quantifier.
		return bad("stacked quantifiers")
	}
	var names []string
	switch {
	case atom == "":
		return bad("no label atom")
	case strings.HasPrefix(atom, "("):
		if !strings.HasSuffix(atom, ")") {
			return bad("unclosed group")
		}
		inner := atom[1 : len(atom)-1]
		if strings.ContainsAny(inner, "()") {
			return bad("nested group")
		}
		names = strings.Split(inner, "|")
	case strings.ContainsAny(atom, "()"):
		return bad("misplaced parenthesis")
	case atom == "*":
		e := exec.RPQElem{Labels: make([]int, len(v.names)), MinRep: minRep, MaxRep: maxRep}
		for l := range e.Labels {
			e.Labels[l] = l
		}
		return e, nil
	default:
		names = strings.Split(atom, "|")
	}
	labels := make([]int, 0, len(names))
	for _, name := range names {
		if name == "" {
			return bad("empty alternation branch")
		}
		l, ok := v.ids[name]
		if !ok {
			return exec.RPQElem{}, fmt.Errorf("%w %q in pattern %q", ErrUnknownLabel, name, pattern)
		}
		labels = append(labels, l)
	}
	sort.Ints(labels)
	labels = dedupSorted(labels)
	return exec.RPQElem{Labels: labels, MinRep: minRep, MaxRep: maxRep}, nil
}

// addressable reports whether a pattern can name the label called name.
// The grammar reads as syntax, and so never looks up, a name that is
// empty, is `*`, contains '/', '|', '(' or ')', or ends in '?' or '}';
// the graph constructors refuse such a label (ErrBadLabelName).
func addressable(name string) bool {
	return name != "" && name != "*" && !strings.ContainsAny(name, "/|()") &&
		!strings.HasSuffix(name, "?") && !strings.HasSuffix(name, "}")
}

// parseCount parses a non-negative decimal repetition count (digits
// only — no signs, no spaces, no empty string).
func parseCount(s string) (int, bool) {
	if s == "" || len(s) > 4 {
		return 0, false
	}
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	return n, true
}

// dedupSorted removes adjacent duplicates from a sorted slice in place.
func dedupSorted(s []int) []int {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// patternExpansions enumerates a pattern's concrete label paths,
// bounded by exec.MaxExpansions — the exact-oracle route, kept for
// ground-truth evaluation; estimation and execution go through the
// compiled DAG, whose cost scales with the expression, not the
// expansion count.
func (v *vocab) patternExpansions(pattern string) ([]paths.Path, error) {
	d, err := v.compileRPQ(pattern)
	if err != nil {
		return nil, err
	}
	exps, ok := d.Expansions(exec.MaxExpansions)
	if !ok {
		return nil, fmt.Errorf("%w: pattern %q expands to over %d paths",
			ErrBadPattern, pattern, exec.MaxExpansions)
	}
	return exps, nil
}

// Expr is a compiled query: the pattern parsed once into an expression
// DAG, planned once (exec.Planner.Plan) and estimated once
// (exec.Planner.Estimate) on the planner of the estimator it was compiled
// by. It is immutable and safe for concurrent use — compile a repeated
// query once and execute the handle many times, from any number of
// goroutines. Under a cache the plan is made against the cache as it is
// at Compile (warm segments steer plan choice);
// every execution runs that plan with exec.Run, never reparsing,
// replanning or asking the histogram again — a query that should see a
// cache warmed since is compiled again. Compile is the one way to ask:
// Estimate and Plan read what it decided, ExecuteCtx — the one way to run
// a compiled query — runs it, and the string entry points (Estimate,
// TrueSelectivity, …) parse with its grammar. Estimate and
// Plan().EstimatedCost are known before anything executes: a caller that
// answers an expensive query by its estimate instead compares the two
// itself and does not execute it.
type Expr struct {
	est     *Estimator
	pattern string
	dag     *exec.RPQDag
	// plan is the compile-time plan, made against the cache as it was
	// then: what every execution runs.
	plan QueryPlan
	// estimate is what Estimate returns.
	estimate float64
}

// Compile parses and plans a pattern into a reusable query handle. The
// pattern's longest matchable path must fit Config.MaxPathLength (the
// histogram's covered length); beyond it Compile fails with
// ErrPathTooLong before anything is planned.
func (e *Estimator) Compile(pattern string) (*Expr, error) {
	dag, err := e.compileRPQ(pattern)
	if err != nil {
		return nil, err
	}
	if ml := dag.MaxLen(); ml > e.cfg.MaxPathLength {
		return nil, fmt.Errorf("%w: pattern %q may match paths up to length %d, beyond %d",
			ErrPathTooLong, pattern, ml, e.cfg.MaxPathLength)
	}
	dp := e.pl.Plan(dag, e.csr.NumVertices())
	return &Expr{est: e, pattern: pattern, dag: dag, plan: queryPlan(dp), estimate: e.pl.Estimate(dp)}, nil
}

// Pattern returns the source pattern.
func (x *Expr) Pattern() string { return x.pattern }

// MinLen and MaxLen bound the concrete path lengths the pattern
// matches.
func (x *Expr) MinLen() int { return x.dag.MinLen() }

// MaxLen is the longest concrete path length the pattern matches.
func (x *Expr) MaxLen() int { return x.dag.MaxLen() }

// Estimate returns the histogram estimate of the pattern's selectivity
// under bag semantics, as exec.Planner.Estimate computed it at compile
// time: one histogram lookup for a concrete path; the sum of the lookups
// of the pattern's concrete expansions when there are at most
// exec.MaxExpansions of them; past that, the compiled DAG's
// independence-model estimate, which asks nothing beyond what planning
// asked.
func (x *Expr) Estimate() float64 { return x.estimate }

// Plan returns the compile-time plan: for a concrete path the cheapest
// plan tree with its per-start zig-zag cost spread, for a true RPQ the
// planned DAG fold. It is the plan every execution of the handle runs
// (ExecStats.Plan reports it): under a cache it was chosen against the
// cache as Compile found it.
func (x *Expr) Plan() QueryPlan { return x.plan }

// ExecuteCtx carries the compiled query's plan — the one Compile chose —
// out on the hybrid execution engine, honoring Config.DensityThreshold,
// Config.Workers (join steps shard their source rows across that many
// work-stealing workers; results are bit-identical at every setting); a
// chosen join tree builds its segments one after the other and joins them
// with the sharded relation×relation kernel. The
// result is the number of distinct vertex pairs connected by a path
// matching the pattern (set semantics; a concrete path degenerates to
// its selectivity), with the actual intermediate sizes beside it, so
// estimate-driven plan quality is measurable against the ground truth.
// Unlike the histogram methods this touches the graph itself, with cost
// proportional to the intermediate volumes.
//
// Cancelling ctx (or passing one whose deadline expires) kills the
// query mid-flight — the abort reaches every join-step worker through
// the execution layer's cooperative flag within a bounded amount of
// kernel work, pooled relations are released, and the call returns
// ErrCancelled or ErrDeadlineExceeded. Config.MaxResultBytes applies on
// top, twice: its size projection refuses a query before any graph
// access (ErrAdmissionDenied), and its runtime budget kills one whose
// relation outgrows it (ErrBudgetExceeded). Every refusal or kill is an
// error, never an estimate in Result: a caller that would rather answer
// the estimate (internal/serve under DegradeToEstimate) does so itself.
//
// Concurrent calls share the estimator's thread-safe segment cache and
// relation pool, and each answers exactly as it would alone: a workload
// is many calls (internal/serve's /batch runs them one after another),
// and only the split of cache hits and misses between its queries
// depends on their interleaving.
func (x *Expr) ExecuteCtx(ctx context.Context) (ExecStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return x.est.execute(ctx, x)
}
