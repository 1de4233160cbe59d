// Command kamel-bench regenerates the paper's tables and figures (§8) on
// the synthetic city substrate.  Each experiment id matches DESIGN.md's
// experiment index:
//
//	kamel-bench -exp fig9            data sparseness (Fig 9)
//	kamel-bench -exp fig10           accuracy threshold δ (Fig 10)
//	kamel-bench -exp fig11           training & imputation time (Fig 11)
//	kamel-bench -exp fig12-road      straight vs curved (Fig 12-I/II)
//	kamel-bench -exp fig12-grid      hex vs square grid (Fig 12-III)
//	kamel-bench -exp fig12-size      training data size (Fig 12-IV)
//	kamel-bench -exp fig12-density   training data density (Fig 12-V)
//	kamel-bench -exp fig12-ablation  module ablation (Fig 12-VI)
//	kamel-bench -exp fig3d           cell-size curve (Fig 3d)
//	kamel-bench -exp models          model repository inventory
//	kamel-bench -exp all             everything above
//
// Results print as aligned tables; -csv also writes a CSV file.
//
// A second mode compares the fixed-grid and density-adaptive tokenizers
// (vocabulary size, training-data factor, model count, accuracy, median
// imputation latency) on both canonical datasets:
//
//	kamel-bench -tokenizer-ab out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"kamel/internal/eval"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -h)")
	scale := flag.Float64("scale", 1, "workload scale factor")
	testN := flag.Int("tests", 8, "test trajectories per point")
	steps := flag.Int("steps", 700, "KAMEL training steps")
	csvPath := flag.String("csv", "", "also write results to this CSV file")
	quiet := flag.Bool("quiet", false, "suppress progress logging")
	tokABOut := flag.String("tokenizer-ab", "", "run the fixed-vs-adaptive tokenizer A/B, write the structured report to this JSON file, and exit")
	flag.Parse()

	opts := eval.DefaultOptions()
	opts.Scale = *scale
	opts.TestN = *testN
	opts.TrainSteps = *steps
	runner := eval.NewRunner(opts)
	defer runner.Close()
	if !*quiet {
		runner.Log = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
		}
	}

	if *tokABOut != "" {
		if err := runTokenizerAB(*tokABOut, runner); err != nil {
			fmt.Fprintln(os.Stderr, "kamel-bench:", err)
			os.Exit(1)
		}
		return
	}

	rows, err := run(runner, *exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kamel-bench:", err)
		os.Exit(1)
	}
	if err := eval.WriteTable(os.Stdout, rows); err != nil {
		fmt.Fprintln(os.Stderr, "kamel-bench:", err)
		os.Exit(1)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kamel-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := eval.WriteCSV(f, rows); err != nil {
			fmt.Fprintln(os.Stderr, "kamel-bench:", err)
			os.Exit(1)
		}
	}
}

// run dispatches one or all experiments.
func run(r *eval.Runner, exp string) ([]eval.Row, error) {
	both := []string{"porto-like", "jakarta-like"}
	single := func(fn func() ([]eval.Row, error)) ([]eval.Row, error) { return fn() }
	switch exp {
	case "fig9":
		return r.RunSparseness(both, nil)
	case "fig10":
		return r.RunThreshold(both, nil)
	case "fig11":
		return r.RunTiming(both)
	case "fig12-road":
		return single(func() ([]eval.Row, error) { return r.RunRoadType("jakarta-like", nil) })
	case "fig12-grid":
		return single(func() ([]eval.Row, error) { return r.RunGridType("jakarta-like", nil) })
	case "fig12-size":
		return single(func() ([]eval.Row, error) { return r.RunTrainSize("jakarta-like", nil) })
	case "fig12-density":
		return single(func() ([]eval.Row, error) { return r.RunDensity("jakarta-like", nil) })
	case "fig12-ablation":
		return single(func() ([]eval.Row, error) { return r.RunAblation("jakarta-like", nil) })
	case "fig3d":
		return single(func() ([]eval.Row, error) { return r.RunCellSize("porto-like", nil) })
	case "models":
		var rows []eval.Row
		for _, ds := range both {
			rs, err := r.ModelInventory(ds)
			if err != nil {
				return nil, err
			}
			rows = append(rows, rs...)
		}
		return rows, nil
	case "all":
		var rows []eval.Row
		for _, id := range []string{"fig9", "fig10", "fig11", "fig12-road", "fig12-grid", "fig12-size", "fig12-density", "fig12-ablation", "fig3d", "models"} {
			rs, err := run(r, id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			rows = append(rows, rs...)
		}
		return rows, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q; valid: fig9 fig10 fig11 fig12-road fig12-grid fig12-size fig12-density fig12-ablation fig3d models all", strings.TrimSpace(exp))
	}
}
