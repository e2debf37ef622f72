// Command bench is the repository's one benchmark: four seeded workloads
// driven through the system's public entry points, every answer checked
// against an exact oracle, end-to-end metrics from an untraced closed
// loop and per-layer metrics from a separate traced pass. See README.md.
//
//	bash bench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --json a.jsonl
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code made explicit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "seed of the operation sequence")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	outDir := fs.String("out", "bench/out", "directory for the span file")
	jsonPath := fs.String("json", "", "append each run's result to this result-set file")
	compare := fs.Bool("compare", false, "compare two result-set files: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result-set files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var specs []*spec
	if *workload == "all" {
		specs = workloads
	} else if sp := workloadByName(*workload); sp != nil {
		specs = []*spec{sp}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: *outDir, out: stdout}
	return runSpecs(specs, cfg, *jsonPath, stderr)
}

// runSpecs runs cfg on each workload in turn, printing each result's
// last line, and returns the exit code: 1 when any run's outputs were
// wrong or a run could not complete.
func runSpecs(specs []*spec, cfg runConfig, jsonPath string, stderr io.Writer) int {
	code := 0
	for _, sp := range specs {
		cfg.sp = sp
		res, err := runOne(cfg)
		if err != nil && !errors.Is(err, errIncorrect) {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		if err != nil {
			code = 1
		}
		if jsonPath != "" {
			if err := appendResult(jsonPath, res); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		fmt.Fprintln(cfg.out, lastLine(res))
	}
	return code
}

// runOne runs one workload, traced or not.
func runOne(cfg runConfig) (result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runTimed(cfg)
}

// appendResult adds one line to a result-set file.
func appendResult(path string, res result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
