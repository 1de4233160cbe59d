// Command kamel-benchmark is the repository's benchmark ledger.  It is run
// through benchmark/run.sh (the command BENCHMARK.json names), which builds
// it and the program under test from the checkout's sources first.
//
//	bash benchmark/run.sh --workload bulk --seed 1 --seconds 15 --trace 0
//
// runs one workload and prints, as the last line of standard output, one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics of an
// untraced run (--trace 0) or the per-layer metrics of a traced one
// (--trace 1).  Without --workload it runs the whole ledger — every workload
// untraced then traced, each in a fresh child process — and with -repeat K
// does so for K consecutive seeds and checks the runs against the bounds.
// See README.md for what is measured and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"kamel/internal/core"
	"kamel/internal/geo"
)

// result is the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "interactive | bulk | cold | ingest (empty: the whole ledger)")
	seed := flag.Int64("seed", 1, "request-stream seed: trip order, sparsification phase, arrival times")
	seconds := flag.Float64("seconds", runSeconds, "measured window per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	repeat := flag.Int("repeat", 2, "ledger mode: seeds to run (seed, seed+1, ...) and hold against the bounds")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *manifest {
		fmt.Println(string(manifestJSON()))
		return
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *workload == "" {
		os.Exit(runLedger(root, *seed, *seconds, *repeat))
	}
	res, err := runOne(root, *workload, *seed, *seconds, *trace != 0)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs a single workload in this process.
func runOne(root, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	run, ok := map[string]func(*env, *core.System, *checker, []geo.Trajectory, *rand.Rand, time.Duration) (*outcome, error){
		"interactive": runInteractive, "bulk": runBulk, "cold": runCold, "ingest": runIngest,
	}[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{build: build, kamelBin: filepath.Join(build, "kamel")}
	if _, err := os.Stat(e.kamelBin); err != nil {
		return nil, fmt.Errorf("%s missing: run through benchmark/run.sh, which builds it", e.kamelBin)
	}
	var err error
	if e.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.tmp)
	if traced {
		e.tr = newTracer()
	}
	if err := e.ensureBase(); err != nil {
		return nil, err
	}

	// Set-up, repeated: the median is the set-up metric.  The traced run
	// needs only the split, so it does one repetition.
	reps := 5 // of about a second each: the median has to sit out a slow period of two of them
	if traced {
		reps = 1
	}
	var setupS, trainS, loadS []float64
	for i := 0; i < reps; i++ {
		train, load, err := e.setupOnce(i)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, (train + load).Seconds())
		trainS, loadS = append(trainS, train.Seconds()), append(loadS, load.Seconds())
	}

	trips, err := readTrips(e.poolFile())
	if err != nil {
		return nil, err
	}
	// The in-process system: under test in bulk, the sizing system of cold,
	// the parity reference of the HTTP workloads, and what the probes and the
	// checker read the tokenizer and projection from.  Cold pages models in,
	// so its sizing system must not evict.
	var cacheBytes int64 // 0: the program's automatic budget, which holds every model
	if workload == "cold" {
		cacheBytes = -1 // unbounded
	}
	sys, err := openSystem(e.baseWork(), cacheBytes)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	chk := newChecker(sys.Projection(), sys.Tokenizer(), sys.Config().MaxGapM)
	layer := map[string]float64{}
	if traced {
		if err := runProbes(e.tr, sys, chk, trips, layer); err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(seed))
	window := time.Duration(seconds * float64(time.Second))
	if workload == "interactive" || workload == "ingest" {
		// One generator thread: the cores belong to the server.
		runtime.GOMAXPROCS(1)
	}
	printHeader(root, workload, seed, seconds, traced)
	o, err := run(e, sys, chk, trips, rng, window)
	if err != nil {
		return nil, err
	}

	for _, p := range o.problems {
		fmt.Printf("# problem: %s\n", p)
	}
	sorted := sortedCopy(o.latMS)
	// req_per_s of the closed-loop interactive run is the saturation rate the
	// open-loop rates were frozen against (README.md, "Rates").
	fmt.Printf("# samples=%d supports=p%g gaps=%d fallbacks=%d measured_s=%.3f req_per_s=%.2f whole_passes=%d\n",
		len(sorted), 100*tailPercentile(len(sorted), 0.90), o.gaps, o.fallbacks, o.window.Seconds(),
		ratio(float64(len(sorted)), o.window.Seconds()), o.passes)

	gapsPerPass := float64(o.gaps)
	if o.passes > 0 {
		gapsPerPass /= float64(o.passes)
	}
	res := &result{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	res.Correct = o.failed == 0 && len(sorted) > 0 && o.gaps > 0
	if tailPercentile(len(sorted), 0.90) < 0.90 {
		// Too few samples for ten beyond the 90th percentile: a lower
		// percentile under the p90 name would understate the slowdown that
		// caused it, so the run does not count.
		fmt.Printf("# INVALID: %d measured requests do not support a p90 (needs 100)\n", len(sorted))
		res.Correct = false
	}
	var defs []metricDef
	values := map[string]float64{}
	if !traced {
		defs = endToEndDefs
		if len(sorted) == 0 || o.gaps == 0 {
			return nil, fmt.Errorf("%s: nothing was measured in %.1f s", workload, seconds)
		}
		values["setup_s"] = median(setupS)
		// Batch handed over → models built from it ready to serve: online
		// through /v1/train on ingest, the set-up's offline `kamel train` on
		// the workloads that do not train while they serve.
		values["train_visible_s"] = median(trainS)
		if o.trainVisible > 0 {
			values["train_visible_s"] = o.trainVisible.Seconds()
		}
		values["impute_p50_ms"] = quantile(sorted, 0.5)
		values["impute_p90_ms"] = quantile(sorted, 0.90)
		values["gaps_per_s"] = gapsPerPass / o.passWall.Seconds()
		values["cpu_ms_per_gap"] = o.passCPU.Seconds() * 1e3 / gapsPerPass
		values["recall"] = o.recall.Recall()
		values["filled_share"] = 1 - float64(o.fallbacks)/float64(o.gaps)
		values["rss_mb"] = o.rssMB
	} else {
		defs = perLayerDefs
		for k, v := range o.layer {
			layer[k] = v
		}
		layer["setup.train_s"], layer["setup.load_s"] = median(trainS), median(loadS)
		layer["trace.gaps_per_s"] = ratio(gapsPerPass, o.passWall.Seconds())
		layer["trace.spans"] = float64(len(e.tr.spans))
		layer["runtime.rss_peak_mb"] = o.rssPeakMB
		values = layer
		out := filepath.Join(root, "benchmark", "out", "trace-"+workload+".jsonl")
		if err := e.tr.flush(out); err != nil {
			return nil, err
		}
		self := selfByName(e.tr.spans)
		names := make([]string, 0, len(self))
		for name := range self {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("# self_time %s %.3f s\n", name, self[name].Seconds())
		}
		// Generator-health guard: an open-loop number from a late or busy
		// generator measures the generator.
		if late, cpu := layer["loadgen.lateness_ms_p95"], layer["loadgen.cpu_share"]; late > 5 || cpu > 0.25 {
			fmt.Printf("# INVALID: generator unhealthy: lateness p95 %.2f ms (limit 5), cpu share %.2f (limit 0.25)\n", late, cpu)
			res.Correct = false
		}
	}
	for _, d := range defs {
		v := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		fmt.Printf("%s %s %s %.6g\n", workload, d.Name, d.Unit, v)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printHeader is the environment fingerprint every run carries.
func printHeader(root, workload string, seed int64, seconds float64, traced bool) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	cfg := core.DefaultConfig("")
	fmt.Printf("# kamel benchmark: workload=%s seed=%d seconds=%g traced=%v\n", workload, seed, seconds, traced)
	fmt.Printf("# commit=%s go=%s nproc=%d cpu=%q\n", commit, runtime.Version(), runtime.NumCPU(), cpu)
	fmt.Printf("# gomaxprocs: benchmark process=%d (1 while it generates HTTP load), program under test=%d\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("# data: porto-like scale=%g (profile's fixed seeds) train=%d ingest=%d pool=%d base_steps=%d model=%dx%d/%d\n",
		dataScale, trainTrips, ingestTrips, poolTrips, baseSteps, cfg.Hidden, cfg.Layers, cfg.FFN)
	fmt.Printf("# frozen: interactive/ingest <=%d gaps @%d m x%d connections (traced interactive: then open loop %g and %g req/s); bulk @%d m x%d workers; cold @%d m x1; ingest -steps %.3g per second of window\n",
		serveGaps, serveSparseM, cores(), interactiveRateMid, interactiveRateHigh, bulkSparseM, cores(), coldSparseM, ingestStepsPerSecond)
}

// manifestJSON renders BENCHMARK.json from the tables in metrics.go.
func manifestJSON() []byte {
	out, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"` // no bound: it is omitted when zero
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloadDefs, endToEndDefs, perLayerDefs}, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return out
}
