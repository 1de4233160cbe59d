// Command kamel-loadgen drives a running kamel serve node (or cluster
// entrypoint) with the open-loop Poisson workload from internal/loadgen and
// prints the resulting capacity curve.
//
//	kamel-loadgen -url http://127.0.0.1:8080 -rates 25,50,100,200
//
// Arrivals fire on schedule regardless of how many requests are in flight
// (open loop), so overload shows up as queueing delay and shed rate instead
// of being hidden by client self-throttling.  Each offered rate runs a
// warmup phase then a measured phase; the sweep ends with the capacity
// point: the best goodput among steps whose p99 stayed under the target
// with zero internal errors.
//
// The workload reuses the synthetic porto-like / jakarta-like datasets
// (-profile), Zipf-skews origins over hotspot cells (-zipf), attributes
// requests to a pool of client identities via X-Kamel-Client (-clients),
// and mixes operations per -mix ("impute=0.9,batch=0.08,train=0.02").
// -seed-target first trains the node on the workload's training split and
// waits for /readyz — the standing-start path for a fresh server.
//
// -json writes the machine-readable sweep next to the human table; each
// step also reports its slowest requests with their X-Kamel-Trace-ID so
// outliers link straight to GET {target}/v1/traces/{id}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"kamel/internal/loadgen"
	"kamel/internal/trajgen"
)

func main() {
	url := flag.String("url", "", "target base URL, e.g. http://127.0.0.1:8080 (required)")
	rates := flag.String("rates", "25,50,100,200,400", "comma-separated offered rates (req/s), swept in order")
	warmup := flag.Duration("warmup", 2*time.Second, "unmeasured warmup per step")
	measure := flag.Duration("measure", 10*time.Second, "measured duration per step")
	clients := flag.Int("clients", 8, "distinct client identities (X-Kamel-Client)")
	zipf := flag.Float64("zipf", 1.2, "Zipf hotspot skew over origin cells (<=1: uniform)")
	mix := flag.String("mix", "impute=0.9,batch=0.1", "operation mix weights, e.g. impute=0.9,batch=0.08,train=0.02")
	profile := flag.String("profile", "porto", "dataset profile: porto, jakarta, or mixed")
	scale := flag.Float64("scale", 0.25, "dataset scale factor")
	sparsify := flag.Float64("sparsify", 500, "sparsification gap (meters) for impute inputs")
	seed := flag.Uint64("seed", 1, "RNG seed for arrivals and request selection")
	p99Target := flag.Float64("p99-target", 250, "capacity-point p99 SLO in ms (<=0: latency unconstrained)")
	slowTraces := flag.Int("slow-traces", 3, "slowest requests reported per step with trace IDs")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request timeout")
	jsonOut := flag.String("json", "", "also write the sweep result to this JSON file")
	seedTarget := flag.Bool("seed-target", false, "POST the training split to /v1/train and wait for /readyz before the sweep")
	flag.Parse()

	if err := run(*url, *rates, *warmup, *measure, *clients, *zipf, *mix, *profile,
		*scale, *sparsify, *seed, *p99Target, *slowTraces, *timeout, *jsonOut, *seedTarget); err != nil {
		fmt.Fprintln(os.Stderr, "kamel-loadgen:", err)
		os.Exit(1)
	}
}

func run(url, rates string, warmup, measure time.Duration, clients int, zipfS float64,
	mixSpec, profile string, scale, sparsify float64, seed uint64, p99Target float64,
	slowTraces int, timeout time.Duration, jsonOut string, seedTarget bool) error {
	if url == "" {
		return fmt.Errorf("-url is required")
	}
	stepRates, err := parseRates(rates)
	if err != nil {
		return err
	}
	mix, err := parseMix(mixSpec)
	if err != nil {
		return err
	}
	if !finite(zipfS) {
		return fmt.Errorf("-zipf must be finite, got %v", zipfS)
	}
	if !finite(p99Target) {
		return fmt.Errorf("-p99-target must be finite, got %v", p99Target)
	}
	profiles, err := datasetProfiles(profile, scale)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "building %s workload (scale %.2f)...\n", profile, scale)
	w, err := loadgen.BuildWorkload(profiles, loadgen.WorkloadOptions{SparsifyMeters: sparsify})
	if err != nil {
		return err
	}
	ni, nb, nt, cells := w.Sizes()
	fmt.Fprintf(os.Stderr, "workload: %d impute, %d batch, %d train bodies over %d hotspot cells\n", ni, nb, nt, cells)

	g := loadgen.New(w, loadgen.Options{
		BaseURL:    strings.TrimRight(url, "/"),
		Clients:    clients,
		ZipfS:      zipfS,
		Mix:        mix,
		Timeout:    timeout,
		Seed:       seed,
		SlowTraces: slowTraces,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if seedTarget {
		fmt.Fprintln(os.Stderr, "seeding target (/v1/train + /readyz)...")
		if err := g.SeedTarget(ctx); err != nil {
			return err
		}
	}

	res := g.Sweep(ctx, stepRates, warmup, measure, p99Target)
	loadgen.WriteTable(os.Stdout, res)
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "sweep interrupted; partial results above")
	}
	if jsonOut != "" {
		raw, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	return nil
}

// finite rejects NaN and ±Inf, which strconv.ParseFloat and flag.Float64
// accept and which pass every "<= 0" range check below them: an infinite
// rate is a zero inter-arrival time, i.e. an unbounded goroutine spawn
// against the target.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// parseRates reads "25,50,100" into ascending-or-not offered rates; order is
// preserved so an operator can sweep down as well as up.
func parseRates(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || !finite(r) || r <= 0 {
			return nil, fmt.Errorf("bad rate %q in -rates", part)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rates is empty")
	}
	return out, nil
}

// parseMix reads "impute=0.9,batch=0.08,train=0.02" (weights are normalized
// downstream, so they need not sum to 1).
func parseMix(spec string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix term %q (want op=weight)", part)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || !finite(f) || f < 0 {
			return m, fmt.Errorf("bad weight %q in -mix", val)
		}
		switch strings.TrimSpace(key) {
		case "impute":
			m.Impute = f
		case "batch":
			m.Batch = f
		case "train":
			m.Train = f
		default:
			return m, fmt.Errorf("unknown mix op %q (impute|batch|train)", key)
		}
	}
	if m == (loadgen.Mix{}) {
		return m, fmt.Errorf("-mix selects no operations")
	}
	return m, nil
}

func datasetProfiles(name string, scale float64) ([]trajgen.Profile, error) {
	switch name {
	case "porto":
		return []trajgen.Profile{trajgen.PortoLike(scale)}, nil
	case "jakarta":
		return []trajgen.Profile{trajgen.JakartaLike(scale)}, nil
	case "mixed":
		return []trajgen.Profile{trajgen.PortoLike(scale), trajgen.JakartaLike(scale)}, nil
	default:
		return nil, fmt.Errorf("unknown -profile %q (porto|jakarta|mixed)", name)
	}
}
