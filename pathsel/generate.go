package pathsel

import (
	"fmt"

	"repro/internal/dataset"
)

// DatasetNames lists the built-in synthetic datasets (the paper's Table 3
// rows; the two real-world datasets are generator-based substitutes, see
// internal/dataset).
func DatasetNames() []string {
	specs := dataset.Table3()
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

// GenerateDataset builds a named Table 3 dataset at the given scale
// (0 < scale ≤ 1; 1.0 reproduces the published vertex/edge counts) with a
// deterministic seed.
func GenerateDataset(name string, scale float64, seed int64) (*Graph, error) {
	for _, spec := range dataset.Table3() {
		if spec.Name == name {
			if scale <= 0 || scale > 1 {
				return nil, fmt.Errorf("%w: scale %v out of (0,1]", ErrBadConfig, scale)
			}
			return newGraph(dataset.Generate(spec, scale, seed))
		}
	}
	return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownDataset, name, DatasetNames())
}
