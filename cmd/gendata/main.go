// Command gendata generates the paper's evaluation datasets (or custom
// synthetic graphs) as edge-list files.
//
// Usage:
//
//	gendata -dataset "Moreno health" -scale 0.1 -seed 1 -out moreno.txt
//	gendata -custom er -vertices 1000 -edges 5000 -labels 4 -out er.txt
//	gendata -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/dataset"
	"repro/internal/graph"
)

func main() {
	name := flag.String("dataset", "", "Table 3 dataset name (see -list)")
	custom := flag.String("custom", "", "custom generator: er, ff, pa")
	schemaFile := flag.String("schema", "", "gMark-style JSON schema file (see -schema-example)")
	schemaExample := flag.Bool("schema-example", false, "print an example schema JSON and exit")
	vertices := flag.Int("vertices", 1000, "custom: vertex count")
	edges := flag.Int("edges", 5000, "custom: edge count")
	labels := flag.Int("labels", 4, "custom: label count")
	zipf := flag.Float64("zipf", 0, "custom: label Zipf skew (0 = uniform)")
	scale := flag.Float64("scale", 1.0, "dataset scale in (0,1]")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", "", "output file (default stdout)")
	list := flag.Bool("list", false, "list built-in datasets and exit")
	flag.Parse()

	if *list {
		for _, spec := range dataset.Table3() {
			fmt.Printf("%-20s labels=%d vertices=%d edges=%d real=%v\n",
				spec.Name, spec.Labels, spec.Vertices, spec.Edges, spec.RealWorld)
		}
		return
	}
	if *schemaExample {
		printSchemaExample()
		return
	}

	var g *graph.Graph
	var err error
	if *schemaFile != "" {
		g, err = buildFromSchema(*schemaFile, *seed)
	} else {
		g, err = build(*name, *custom, *vertices, *edges, *labels, *zipf, *scale, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gendata:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := dataset.WriteEdgeList(w, g.Freeze()); err != nil {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gendata: wrote %d vertices, %d edges, %d labels\n",
		g.NumVertices(), g.NumEdges(), g.NumLabels())
}

// printSchemaExample writes a ready-to-edit schema file to stdout.
func printSchemaExample() {
	example := dataset.Schema{
		Vertices: 1000,
		Edges:    8000,
		Labels: []dataset.LabelSpec{
			{Name: "follows", Proportion: 0.6, OutDist: dataset.DegreeZipfian, InDist: dataset.DegreeZipfian, Skew: 1.2},
			{Name: "likes", Proportion: 0.3, OutDist: dataset.DegreeUniform, InDist: dataset.DegreeZipfian, Skew: 1.0},
			{Name: "blocks", Proportion: 0.1, OutDist: dataset.DegreeUniform, InDist: dataset.DegreeUniform},
		},
	}
	out, err := json.MarshalIndent(example, "", "  ")
	if err != nil {
		panic(err) // static example cannot fail to marshal
	}
	fmt.Println(string(out))
}

// buildFromSchema reads and materializes a JSON schema file.
func buildFromSchema(path string, seed int64) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s dataset.Schema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing schema %s: %v", path, err)
	}
	return dataset.GenerateSchema(s, seed)
}

func build(name, custom string, vertices, edges, labels int, zipf, scale float64, seed int64) (*graph.Graph, error) {
	if name != "" && custom != "" {
		return nil, fmt.Errorf("use either -dataset or -custom, not both")
	}
	if name != "" {
		for _, spec := range dataset.Table3() {
			if spec.Name == name {
				if scale <= 0 || scale > 1 {
					return nil, fmt.Errorf("scale %v out of (0,1]", scale)
				}
				return dataset.Generate(spec, scale, seed), nil
			}
		}
		return nil, fmt.Errorf("unknown dataset %q (try -list)", name)
	}
	var model dataset.LabelModel = dataset.UniformLabels{L: labels}
	if zipf > 0 {
		model = dataset.NewZipfLabels(labels, zipf)
	}
	switch custom {
	case "er":
		return dataset.ErdosRenyi(vertices, edges, model, seed), nil
	case "ff":
		return dataset.ForestFire(vertices, edges, 0.35, 0.32, model, seed), nil
	case "pa":
		return dataset.PreferentialAttachment(vertices, edges, model, seed), nil
	case "":
		return nil, fmt.Errorf("specify -dataset or -custom (or -list)")
	default:
		return nil, fmt.Errorf("unknown custom generator %q (er, ff, pa)", custom)
	}
}
