package experiments

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ordering"
	"repro/internal/paths"
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
	if err := opt.validate(); err != nil {
		return nil, err
	}
	g := dataset.Generate(dataset.Table3()[0], opt.Scale, opt.Seed).Freeze()
	k := 3
	census := paths.NewCensusHybrid(g, k, paths.CensusOptions{})
	beta := int(census.Size() / 16)
	if beta < 2 {
		beta = 2
	}
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
		ord, err := ordering.ForGraph(method, g, k)
		if err != nil {
			return nil, err
		}
		ph, err := core.Build(census, ord, core.BuilderVOptimal, beta)
		if err != nil {
			return nil, err
		}
		samplers := []workload.Sampler{
			workload.Uniform{Ord: ord},
			nonEmpty,
			freqWeighted,
			workload.FixedLength{NumLabels: g.NumLabels(), Length: k},
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
				Beta:          beta,
				MeanErrorRate: sumErr / float64(len(queries)),
				MeanQError:    sumQ / float64(len(queries)),
			})
		}
	}
	return out, nil
}

// WriteWorkloadCSV exports a WorkloadAccuracy run.
func WriteWorkloadCSV(w io.Writer, cells []WorkloadCell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "method", "beta", "mean_error_rate", "mean_q_error"}); err != nil {
		return err
	}
	for _, c := range cells {
		if err := cw.Write([]string{
			c.Workload, c.Method, strconv.Itoa(c.Beta),
			strconv.FormatFloat(c.MeanErrorRate, 'f', 6, 64),
			strconv.FormatFloat(c.MeanQError, 'f', 4, 64),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
