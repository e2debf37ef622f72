package dataset

import (
	"fmt"

	"repro/internal/graph"
)

// Spec describes one evaluation dataset (a row of the paper's Table 3).
type Spec struct {
	Name      string
	Labels    int
	Vertices  int
	Edges     int
	RealWorld bool // "Real world data" column: whether the original was real data
}

// Table3 lists the four datasets with the paper's published statistics.
func Table3() []Spec {
	return []Spec{
		{Name: "Moreno health", Labels: 6, Vertices: 2539, Edges: 12969, RealWorld: true},
		{Name: "DBpedia (subgraph)", Labels: 8, Vertices: 37374, Edges: 209068, RealWorld: true},
		{Name: "SNAP-ER", Labels: 6, Vertices: 12333, Edges: 147996, RealWorld: false},
		{Name: "SNAP-FF", Labels: 8, Vertices: 50000, Edges: 132673, RealWorld: false},
	}
}

// Generate builds the dataset described by spec at the given scale with a
// deterministic seed. Scale 1.0 reproduces the published vertex/edge
// counts; smaller scales shrink both proportionally (used for fast default
// experiment runs). Scale must be in (0, 1].
func Generate(spec Spec, scale float64, seed int64) *graph.Graph {
	if scale <= 0 || scale > 1 {
		panic(fmt.Sprintf("dataset: scale %v out of (0,1]", scale))
	}
	v := int(float64(spec.Vertices) * scale)
	e := int(float64(spec.Edges) * scale)
	if v < 10 {
		v = 10
	}
	if e < spec.Labels {
		e = spec.Labels
	}
	switch spec.Name {
	case "Moreno health":
		return morenoHealthLike(v, e, spec.Labels, seed)
	case "DBpedia (subgraph)":
		return dbpediaLike(v, e, spec.Labels, seed)
	case "SNAP-ER":
		// Synthetic datasets carry skewed but topology-independent labels:
		// the paper's strongest sum-based wins are on synthetic data, and
		// attributes the *smaller* real-world gap to edge-label cardinality
		// correlations — implying its synthetic labels were skewed yet
		// uncorrelated.
		return ErdosRenyi(v, e, NewZipfLabels(spec.Labels, 1.2), seed)
	case "SNAP-FF":
		return ForestFire(v, e, 0.35, 0.32, NewZipfLabels(spec.Labels, 1.2), seed)
	default:
		panic(fmt.Sprintf("dataset: unknown spec %q", spec.Name))
	}
}

// MorenoHealthLike returns the Moreno Health substitute at full published
// scale. See the package comment for the substitution rationale.
func MorenoHealthLike(seed int64) *graph.Graph {
	return Generate(Table3()[0], 1.0, seed)
}

// DBpediaLike returns the DBpedia-subgraph substitute at full published
// scale.
func DBpediaLike(seed int64) *graph.Graph {
	return Generate(Table3()[1], 1.0, seed)
}

// SnapER returns the SNAP-ER synthetic dataset at full published scale.
func SnapER(seed int64) *graph.Graph {
	return Generate(Table3()[2], 1.0, seed)
}

// SnapFF returns the SNAP-FF synthetic dataset at full published scale.
func SnapFF(seed int64) *graph.Graph {
	return Generate(Table3()[3], 1.0, seed)
}

// morenoHealthLike emulates the Moreno Health friendship network: a social
// graph (moderate degree skew) whose six answer-rank labels have strongly
// skewed, degree-correlated frequencies — friend #1 nominations (label "1")
// vastly outnumber friend #6 ones, and sociable vertices produce the
// frequent labels. This skew+correlation is exactly the structure Figure 1
// of the paper visualizes.
func morenoHealthLike(v, e, labels int, seed int64) *graph.Graph {
	model := &CorrelatedLabels{Zipf: NewZipfLabels(labels, 1.1), Coupling: 0.5}
	return PreferentialAttachment(v, e, model, seed)
}

// dbpediaLike emulates a DBpedia subgraph: a heavy-tailed knowledge graph
// with hub entities and strongly skewed predicate frequencies.
func dbpediaLike(v, e, labels int, seed int64) *graph.Graph {
	model := &CorrelatedLabels{Zipf: NewZipfLabels(labels, 1.4), Coupling: 0.6}
	return PreferentialAttachment(v, e, model, seed)
}
