package experiments

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/ordering"
	"repro/internal/stats"
	"repro/internal/workload"
)

// WorkloadCell is one (workload, method) accuracy measurement.
type WorkloadCell struct {
	Workload      string
	Method        string
	Beta          int
	MeanErrorRate float64
	MeanQError    float64
}

// WorkloadAccuracy extends Figure 2 with realistic query workloads
// (internal/workload): instead of averaging |err| uniformly over all of Lk, it
// averages over queries drawn from biased samplers — non-empty paths only,
// frequency-weighted paths, and a fixed-length template — on the Moreno
// Health substitute at k = 3.
func WorkloadAccuracy(opt Options) ([]WorkloadCell, error) {
	m, err := newMoreno(opt)
	if err != nil {
		return nil, err
	}
	census := m.census
	nonEmpty, err := workload.NewNonEmpty(census)
	if err != nil {
		return nil, err
	}
	freqWeighted, err := workload.NewFrequencyWeighted(census)
	if err != nil {
		return nil, err
	}

	var out []WorkloadCell
	for _, method := range ordering.PaperMethods() {
		ph, err := histogram(m.g, census, method, core.BuilderVOptimal, m.beta)
		if err != nil {
			return nil, err
		}
		samplers := []workload.Sampler{
			workload.Uniform{Ord: ph.Ordering()},
			nonEmpty,
			freqWeighted,
			workload.FixedLength{NumLabels: m.g.NumLabels(), Length: census.K()},
		}
		for _, s := range samplers {
			queries := workload.Generate(s, opt.Queries, opt.Seed)
			var sumErr, sumQ float64
			for _, q := range queries {
				e := ph.Estimate(q)
				f := float64(census.Selectivity(q))
				abs := stats.Err(e, f)
				if abs < 0 {
					abs = -abs
				}
				sumErr += abs
				sumQ += stats.QError(e, f)
			}
			out = append(out, WorkloadCell{
				Workload:      s.Name(),
				Method:        method,
				Beta:          m.beta,
				MeanErrorRate: sumErr / float64(len(queries)),
				MeanQError:    sumQ / float64(len(queries)),
			})
		}
	}
	return out, nil
}

func workloadTable(cells []WorkloadCell) *Table {
	t := &Table{Name: "workload", Title: "Workload accuracy: mean error rate by query workload × ordering (Moreno, k=3)",
		Header: []string{"workload", "method", "beta", "mean_error_rate", "mean_q_error"}}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{c.Workload, c.Method, strconv.Itoa(c.Beta),
			fixed(c.MeanErrorRate, 6), fixed(c.MeanQError, 4)})
	}
	return t
}
