package pathsel

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/plan_digest.golden and testdata/synopsis.golden from this tree's behaviour")

// goldenPatterns draws the digest's workload: concrete paths and RPQ
// patterns in equal measure, every length the histogram covers.
func goldenPatterns(labels []string, count, maxLen int) []string {
	rng := rand.New(rand.NewSource(2018))
	out := make([]string, count)
	for i := range out {
		if i%2 == 1 {
			out[i] = randomRPQPattern(rng, labels, maxLen)
			continue
		}
		segs := make([]string, 1+rng.Intn(maxLen))
		for j := range segs {
			segs[j] = labels[rng.Intn(len(labels))]
		}
		out[i] = strings.Join(segs, "/")
	}
	return out
}

// digestPlan folds one QueryPlan view into h, floats by their bits, and
// a concrete path's plan tree.
func digestPlan(h hash.Hash, p QueryPlan) {
	fmt.Fprintf(h, "%q %d %x", p.Description, p.Start, math.Float64bits(p.EstimatedCost))
	for _, c := range p.Costs {
		fmt.Fprintf(h, " %x", math.Float64bits(c))
	}
	if p.Costs != nil {
		fmt.Fprintf(h, " tree %s", p.dp.Tree.Describe(len(p.Costs)))
	}
	fmt.Fprintln(h)
}

// TestGoldenPlanDigest pins the whole estimate → plan → execute chain to
// a committed digest: the serialized synopsis, and for 3 000 seeded
// patterns the estimate, the compile-time plan with its per-start costs,
// and the executed plan, Result, Work and Intermediates — uncached, and
// over a cache small enough to evict, cold then warm. Everything digested
// is a deterministic function of the seed (one worker, so publish order
// is fixed), so any refactor of the planner or executor must leave the
// file untouched; -update rewrites it.
func TestGoldenPlanDigest(t *testing.T) {
	const path = "testdata/plan_digest.golden"
	const maxLen = 5
	g := batchTestGraph(t, 31, 60, 4, 420)
	patterns := goldenPatterns(g.Labels(), 3000, maxLen)
	var got strings.Builder
	for _, cacheBytes := range []int64{0, 96 << 10} {
		est, err := Build(g, Config{
			MaxPathLength: maxLen, Buckets: 48, Workers: 1,
			CacheBytes: cacheBytes, CacheShards: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		passes := []string{"cold", "warm"}
		if cacheBytes == 0 {
			var blob bytes.Buffer
			if err := est.Save(&blob); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "save %x\n", sha256.Sum256(blob.Bytes()))
			passes = []string{"off"}
		}
		for _, pass := range passes {
			h := sha256.New()
			for _, p := range patterns {
				x, err := est.Compile(p)
				if err != nil {
					t.Fatalf("Compile(%q): %v", p, err)
				}
				fmt.Fprintf(h, "%s %x\n", p, math.Float64bits(x.Estimate()))
				digestPlan(h, x.Plan())
				st, err := x.ExecuteCtx(context.Background())
				if err != nil {
					t.Fatalf("Execute(%q): %v", p, err)
				}
				digestPlan(h, st.Plan)
				fmt.Fprintf(h, "%d %d %v\n", st.Result, st.Work, st.Intermediates)
			}
			fmt.Fprintf(&got, "cache=%s %x\n", pass, h.Sum(nil))
		}
		// The cached configuration exists to evict: a budget the
		// patterns' segments fit into would pin only the hit path.
		if st, cached := est.CacheStats(); cached && st.Evictions == 0 {
			t.Errorf("%d bytes of cache held all %d entries without evicting", cacheBytes, st.Entries)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("plan digest changed (rerun with -update only if the change is intended)\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
