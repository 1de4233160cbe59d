package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"kamel/internal/core"
	"kamel/internal/loadgen"
	"kamel/internal/trajgen"
)

// This file is the in-process half of the load harness: the same open-loop
// generator cmd/kamel-loadgen ships is pointed at httptest servers built from
// the real API handler, so CI can smoke the sweep path without ports or
// subprocesses.

// capacityConfig shrinks the model to the integration-test scale (the same
// knobs the cluster fixture uses) so training through /v1/train stays
// affordable; everything else — partitioning, constraints, the batcher — runs
// as shipped, which is what makes the measured capacity meaningful.
func capacityConfig(dir string) core.Config {
	cfg := systemConfig(dir, 200, "", false, false, false)
	cfg.Hidden, cfg.FFN = 32, 128
	cfg.Train.Batch = 12
	cfg.TopK = 40
	cfg.MaxCalls = 150
	return cfg
}

// capacityServeOptions widens the request plumbing for seeding: the training
// split arrives as one large POST that may run well past the interactive
// 30s default.
func capacityServeOptions() serveOptions {
	opts := defaultServeOptions()
	opts.logger = quietLogger()
	opts.requestTimeout = 10 * time.Minute
	opts.maxBodyBytes = 256 << 20
	return opts
}

// newCapacityServer stands up one untrained node; the generator's seed phase
// trains it over the wire, exactly like an operator driving a fresh server.
func newCapacityServer(t *testing.T) *httptest.Server {
	t.Helper()
	sys, err := core.New(capacityConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	ts := httptest.NewServer(newAPIHandler(sys, capacityServeOptions()))
	t.Cleanup(ts.Close)
	return ts
}

// capacityWorkload builds the porto-like request pools at the given dataset
// scale.  The workload's own training split is what seeds the target, so the
// impute bodies are genuinely held-out trajectories over trained cells.
func capacityWorkload(t *testing.T, scale float64) *loadgen.Workload {
	t.Helper()
	w, err := loadgen.BuildWorkload(
		[]trajgen.Profile{trajgen.PortoLike(scale)},
		loadgen.WorkloadOptions{SparsifyMeters: 600})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// capacitySweep seeds the target over the wire, then runs the stepped sweep.
// The seed phase gets its own bound so a target that never reports ready
// fails loudly with the last /readyz response instead of eating the sweep's
// whole budget.
func capacitySweep(t *testing.T, url string, w *loadgen.Workload, rates []float64, warmup, measure time.Duration, p99Target float64) loadgen.SweepResult {
	t.Helper()
	g := loadgen.New(w, loadgen.Options{BaseURL: url, Seed: 1, ZipfS: 1.2})
	seedCtx, cancelSeed := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancelSeed()
	if err := g.SeedTarget(seedCtx); err != nil {
		t.Fatalf("seeding capacity target: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Minute)
	defer cancel()
	return g.Sweep(ctx, rates, warmup, measure, p99Target)
}

// TestLoadgenSmoke is the CI loadgen job: a short open-loop sweep against an
// in-process node, failing on any internal error — overload must
// surface as 429s, never 500s — and on a sweep that produced no goodput.
func TestLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loadgen smoke trains a model; skipped under -short")
	}
	ts := newCapacityServer(t)
	w := capacityWorkload(t, 0.1)
	res := capacitySweep(t, ts.URL, w, []float64{40, 80}, 300*time.Millisecond, 1200*time.Millisecond, 250)

	if len(res.Steps) != 2 {
		t.Fatalf("sweep ran %d steps, want 2", len(res.Steps))
	}
	var ok int64
	for _, st := range res.Steps {
		if st.Internal != 0 {
			t.Errorf("offered %.0f/s: %d internal errors (out of %d sent); overload must shed with 429, not 500",
				st.OfferedRPS, st.Internal, st.Sent)
		}
		if st.Sent == 0 {
			t.Errorf("offered %.0f/s: generator sent nothing", st.OfferedRPS)
		}
		ok += st.OK
	}
	if ok == 0 {
		t.Fatal("sweep produced zero goodput against a seeded node")
	}
}
