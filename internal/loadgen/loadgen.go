package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"kamel/internal/obs"
)

// Options configure a Generator.  Zero values take the noted defaults.
type Options struct {
	// BaseURL is the target node, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; nil uses a dedicated transport with a
	// connection pool wide enough that the generator, not the client, is
	// the bottleneck.
	Client *http.Client
	// Clients is the number of distinct client identities requests are
	// attributed to via X-Kamel-Client (default 8; 0 < n).
	Clients int
	// ZipfS is the hotspot skew exponent over origin cells; values <= 1
	// fall back to uniform cell selection (default 1.2).
	ZipfS float64
	// Mix weighs impute/batch/train operations (zero: 90/10/0).
	Mix Mix
	// Timeout bounds one request (default 10s).
	Timeout time.Duration
	// Seed drives arrival times and request selection; runs with equal
	// seeds against equal workloads issue identical request sequences.
	Seed uint64
	// SlowTraces is how many of a step's slowest requests to report with
	// their X-Kamel-Trace-ID (default 3), linking capacity-curve outliers
	// straight to /v1/traces on the target.
	SlowTraces int
}

func (o *Options) normalize() {
	if o.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = 512
		tr.MaxIdleConnsPerHost = 512
		o.Client = &http.Client{Transport: tr}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Mix == (Mix{}) {
		o.Mix = Mix{Impute: 0.9, Batch: 0.1}
	}
	o.Mix = o.Mix.normalized()
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.SlowTraces <= 0 {
		o.SlowTraces = 3
	}
}

// Generator drives one target with the open-loop workload.
type Generator struct {
	opts Options
	w    *Workload
}

// New builds a Generator over a pre-rendered workload.
func New(w *Workload, opts Options) *Generator {
	opts.normalize()
	return &Generator{opts: opts, w: w}
}

// SlowRequest identifies one of a step's slowest requests for post-hoc trace
// inspection via GET {target}/v1/traces/{TraceID}.
type SlowRequest struct {
	Op        Op      `json:"op"`
	Status    int     `json:"status"`
	LatencyMS float64 `json:"latency_ms"`
	TraceID   string  `json:"trace_id,omitempty"`
}

// StepResult is one point of the capacity curve: what happened while offering
// load at one fixed Poisson rate.
type StepResult struct {
	OfferedRPS float64       `json:"offered_rps"`
	Duration   time.Duration `json:"-"`
	DurationS  float64       `json:"duration_s"`

	Sent     int64 `json:"sent"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"`     // 429
	Errors   int64 `json:"errors"`   // non-2xx other than 429
	Internal int64 `json:"internal"` // the 500 subset of Errors
	Timeout  int64 `json:"timeouts"` // client-side deadline/transport failures

	GoodputRPS float64 `json:"goodput_rps"`
	ShedRate   float64 `json:"shed_rate"`
	ErrorRate  float64 `json:"error_rate"`

	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`

	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// recorder accumulates one measurement phase under a single mutex; the
// per-request critical section is tiny compared to a network round trip.
type recorder struct {
	mu       sync.Mutex
	lat      []float64 // success latencies, ms
	ok       int64
	shed     int64
	errors   int64
	internal int64
	timeout  int64
	sent     int64
	slowest  []SlowRequest // kept sorted descending by latency, capped
	slowCap  int
}

func (r *recorder) record(op Op, status int, latency time.Duration, traceID string, transportErr bool) {
	ms := float64(latency) / float64(time.Millisecond)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sent++
	switch {
	case transportErr:
		r.timeout++
	case status >= 200 && status < 300:
		r.ok++
		r.lat = append(r.lat, ms)
	case status == http.StatusTooManyRequests:
		r.shed++
	default:
		r.errors++
		if status >= 500 && status != http.StatusServiceUnavailable {
			r.internal++
		}
	}
	if transportErr || r.slowCap == 0 {
		return
	}
	if len(r.slowest) < r.slowCap || ms > r.slowest[len(r.slowest)-1].LatencyMS {
		r.slowest = append(r.slowest, SlowRequest{Op: op, Status: status, LatencyMS: ms, TraceID: traceID})
		sort.Slice(r.slowest, func(i, j int) bool { return r.slowest[i].LatencyMS > r.slowest[j].LatencyMS })
		if len(r.slowest) > r.slowCap {
			r.slowest = r.slowest[:r.slowCap]
		}
	}
}

func (r *recorder) result(rate float64, elapsed time.Duration) StepResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := StepResult{
		OfferedRPS: rate,
		Duration:   elapsed,
		DurationS:  elapsed.Seconds(),
		Sent:       r.sent,
		OK:         r.ok,
		Shed:       r.shed,
		Errors:     r.errors,
		Internal:   r.internal,
		Timeout:    r.timeout,
		Slowest:    append([]SlowRequest(nil), r.slowest...),
	}
	if elapsed > 0 {
		st.GoodputRPS = float64(r.ok) / elapsed.Seconds()
	}
	if r.sent > 0 {
		st.ShedRate = float64(r.shed) / float64(r.sent)
		st.ErrorRate = float64(r.errors+r.timeout) / float64(r.sent)
	}
	sort.Float64s(r.lat)
	st.P50MS = quantile(r.lat, 0.50)
	st.P99MS = quantile(r.lat, 0.99)
	st.P999MS = quantile(r.lat, 0.999)
	return st
}

// quantile reads q from an ascending-sorted sample (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// shot is one pre-selected request: everything the issuing goroutine needs,
// chosen single-threaded in the arrival loop so the RNG is never shared.
type shot struct {
	op     Op
	path   string
	body   []byte
	client string
	pri    string
}

// pick selects the next request: operation by mix weight, impute body by
// Zipf-over-cells (uniform within the chosen cell), batch/train uniform.
func (g *Generator) pick(rng *rand.Rand, zipf *rand.Zipf) shot {
	u := rng.Float64()
	cl := fmt.Sprintf("client-%d", rng.IntN(g.opts.Clients))
	switch {
	case u < g.opts.Mix.Impute || len(g.w.train) == 0 && len(g.w.batch) == 0:
		var idx int
		if zipf != nil {
			group := g.w.groups[int(zipf.Uint64())]
			idx = group[rng.IntN(len(group))]
		} else {
			idx = rng.IntN(len(g.w.impute))
		}
		return shot{op: OpImpute, path: "/v1/impute", body: g.w.impute[idx], client: cl, pri: "interactive"}
	case u < g.opts.Mix.Impute+g.opts.Mix.Batch || len(g.w.train) == 0:
		return shot{op: OpBatch, path: "/v1/impute/batch", body: g.w.batch[rng.IntN(len(g.w.batch))], client: cl, pri: "bulk"}
	default:
		return shot{op: OpTrain, path: "/v1/train", body: g.w.train[rng.IntN(len(g.w.train))], client: cl, pri: "bulk"}
	}
}

// issue sends one request and records its outcome (rec nil during warmup).
// Latency runs from due, the arrival's scheduled time, not from the send: when
// the generator falls behind and fires a backlog back-to-back, the scheduling
// lag is part of what a client arriving on schedule would have waited.
func (g *Generator) issue(ctx context.Context, sh shot, due time.Time, rec *recorder) {
	ctx, cancel := context.WithTimeout(ctx, g.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.opts.BaseURL+sh.path, bytes.NewReader(sh.body))
	if err != nil {
		if rec != nil {
			rec.record(sh.op, 0, 0, "", true)
		}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.HeaderClient, sh.client)
	req.Header.Set(obs.HeaderPriority, sh.pri)
	resp, err := g.opts.Client.Do(req)
	latency := time.Since(due)
	if err != nil {
		if rec != nil {
			rec.record(sh.op, 0, latency, "", true)
		}
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if rec != nil {
		rec.record(sh.op, resp.StatusCode, latency, resp.Header.Get("X-Kamel-Trace-ID"), false)
	}
}

// runPhase offers load at rate for d, open loop: arrivals are scheduled by an
// exponential inter-arrival clock and fired regardless of how many requests
// are still outstanding.  rec nil makes it a warmup phase.  It returns once
// every fired request has completed (so a step's stragglers cannot leak into
// the next step's measurements).
func (g *Generator) runPhase(ctx context.Context, rate float64, d time.Duration, rec *recorder) {
	if rate <= 0 || d <= 0 {
		return
	}
	rng := rand.New(rand.NewPCG(g.opts.Seed, g.opts.Seed^0x9e3779b97f4a7c15))
	var zipf *rand.Zipf
	if g.opts.ZipfS > 1 && len(g.w.groups) > 1 {
		zipf = rand.NewZipf(rng, g.opts.ZipfS, 1, uint64(len(g.w.groups)-1))
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	start := time.Now()
	deadline := start.Add(d)
	next := start
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		if wait := next.Sub(now); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		sh, due := g.pick(rng, zipf), next
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.issue(ctx, sh, due, rec)
		}()
		// Exponential inter-arrival: the Poisson process.  Scheduling from
		// the previous *scheduled* time (not from now) preserves the offered
		// rate even when the generator briefly falls behind.
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
	}
}

// RunStep offers one fixed rate: warmup (unmeasured) then measure.
func (g *Generator) RunStep(ctx context.Context, rate float64, warmup, measure time.Duration) StepResult {
	g.runPhase(ctx, rate, warmup, nil)
	rec := &recorder{slowCap: g.opts.SlowTraces}
	start := time.Now()
	g.runPhase(ctx, rate, measure, rec)
	return rec.result(rate, time.Since(start))
}

// SweepResult is a stepped-rate run: the capacity curve plus its headline —
// the maximum goodput among steps meeting the p99 target with zero internal
// errors.
type SweepResult struct {
	Target      string       `json:"target"`
	P99TargetMS float64      `json:"p99_target_ms"`
	Steps       []StepResult `json:"steps"`
	// CapacityRPS is the goodput of the best in-SLO step (0 when none).
	CapacityRPS float64 `json:"capacity_rps"`
	// CapacityOfferedRPS is the offered rate of that step.
	CapacityOfferedRPS float64 `json:"capacity_offered_rps"`
}

// Sweep runs warmup+measure at each offered rate in turn and derives the
// capacity point.  A cancelled ctx ends the sweep early with the steps
// completed so far.
func (g *Generator) Sweep(ctx context.Context, rates []float64, warmup, measure time.Duration, p99TargetMS float64) SweepResult {
	out := SweepResult{Target: g.opts.BaseURL, P99TargetMS: p99TargetMS}
	for _, rate := range rates {
		if ctx.Err() != nil {
			break
		}
		st := g.RunStep(ctx, rate, warmup, measure)
		out.Steps = append(out.Steps, st)
	}
	out.CapacityRPS, out.CapacityOfferedRPS = capacityPoint(out.Steps, p99TargetMS)
	return out
}

// capacityPoint picks the sweep's headline: the goodput and offered rate of
// the step with the highest goodput among those with no internal errors and
// p99 within the target (a non-positive target admits every p99).  Both are 0
// when no step qualifies or none succeeded at anything.
func capacityPoint(steps []StepResult, p99TargetMS float64) (goodput, offered float64) {
	for _, st := range steps {
		inSLO := st.Internal == 0 && (p99TargetMS <= 0 || st.P99MS <= p99TargetMS)
		if inSLO && st.GoodputRPS > goodput {
			goodput, offered = st.GoodputRPS, st.OfferedRPS
		}
	}
	return goodput, offered
}

// SeedTarget trains the target with the workload's full training splits and
// polls /readyz until the node reports ready (or ctx ends).  It is the
// standing-start path for driving a fresh server.
func (g *Generator) SeedTarget(ctx context.Context) error {
	for _, body := range g.w.TrainBodies() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.opts.BaseURL+"/v1/train", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := g.opts.Client.Do(req)
		if err != nil {
			return fmt.Errorf("loadgen: seeding target: %w", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("loadgen: seeding target: /v1/train status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
	last := "no /readyz response yet"
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.opts.BaseURL+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := g.opts.Client.Do(req)
		if err != nil {
			last = err.Error()
		} else {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
		select {
		case <-time.After(200 * time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("loadgen: target never became ready (last /readyz: %s): %w", last, ctx.Err())
		}
	}
}
