package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"mime"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kamel/internal/batcher"
	"kamel/internal/cluster"
	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/tokenizer"
)

// API error codes carried in the structured JSON error body.
const (
	codeBadRequest   = "bad_request"
	codeNotFound     = "not_found"
	codeNotTrained   = "not_trained"
	codeInternal     = "internal"
	codeOverloaded   = "overloaded"
	codeTimeout      = "timeout"
	codeTooLarge     = "too_large"
	codeWarming      = "warming"
	codeConflict     = "conflict"
	codeShardDown    = "shard_unavailable"
	codeShuttingDown = "shutting_down"
	codeClientClosed = "client_closed"
)

// statusClientClosed is the de-facto (nginx) status for a request whose
// client went away before the response: nobody reads the answer, but the
// route histogram and log line need a label that is neither success nor a
// server fault.
const statusClientClosed = 499

// apiServer wires a KAMEL system to the demonstration HTTP API of the SIGMOD
// demo paper.  The v1 surface is versioned and batch-first:
//
//	POST /v1/train         []{id, points:[[lat,lng,t],...]} → system stats
//	POST /v1/impute        one trajectory (+ admission fields) → dense trajectory
//	POST /v1/impute/batch  []trajectory or {trajectories, deadline_ms, priority}
//	GET  /v1/stats         trained-state summary
//
// Every error — top-level or per-element inside a batch response — uses the
// same structured envelope: {"error": {"code": "...", "message": "..."}}.
// The imputation endpoints accept two admission fields: "deadline_ms" bounds
// the request's context (on top of the server-side request timeout) and
// "priority" ("interactive", the single-impute default, or "bulk", the batch
// default) picks the admission batcher's dispatch lane.  Request contexts
// flow into the imputation engine, so clients that disconnect (and deadlines
// that expire) stop beam search mid-flight instead of burning the call
// budget.  The pre-versioning /api/* aliases have been removed; they now 404.
type apiServer struct {
	sys  *core.System
	opts serveOptions

	warmed atomic.Bool // root model proven loadable (readyz warming gate)

	// admission is the overload controller (nil when -max-inflight is 0): its
	// concurrency limit tracks the batcher's observed queue wait, per-client
	// fair-share quotas bound each tenant, and bulk work is shed ahead of
	// interactive.
	admission *batcher.Admission

	// Resilience counters live in the system's metrics registry, so /metrics
	// and /v1/stats read the same values.
	shed     *obs.Counter // requests rejected with 429
	panics   *obs.Counter // handler panics recovered into 500s
	timeouts *obs.Counter // requests whose per-request deadline expired

	// hists caches (route, status) → latency histogram resolutions so the
	// steady state avoids a registry registration per request.
	histMu sync.RWMutex
	hists  map[string]*obs.Histogram

	// traces is this node's bounded trace store: head-sampled plus
	// tail-retained (error/slow) request traces, served by /v1/traces.
	traces *obs.TraceStore
	// slo, when non-nil, receives every request outcome for burn-rate
	// monitoring.
	slo *obs.SLOMonitor
}

// logger returns the configured structured logger, or the process default.
func (s *apiServer) logger() *slog.Logger {
	if s.opts.logger != nil {
		return s.opts.logger
	}
	return slog.Default()
}

// serveOptions are the hardening knobs of the HTTP surface, set from flags
// in runServe and directly by tests.
type serveOptions struct {
	// requestTimeout bounds each request's handling via its context; the
	// imputation engine aborts between BERT calls when it expires.  0
	// disables.
	requestTimeout time.Duration
	// maxBodyBytes caps request bodies; oversized requests get 413.
	maxBodyBytes int64
	// maxInflight is the ceiling of the adaptive concurrency limit; excess
	// load is shed with 429 + Retry-After rather than queued without bound.
	// 0 disables admission control.
	maxInflight int
	// slowRequest is the duration at or above which a request is logged at
	// warn level with its per-stage span breakdown.  0 disables.
	slowRequest time.Duration
	// logger receives the structured request log; nil uses slog.Default().
	logger *slog.Logger
	// router, when non-nil, makes this node part of a horizontally sharded
	// deployment: imputation requests are routed to the shard owning their
	// spatial cell (see internal/cluster and serve_cluster.go).
	router *cluster.Router
	// clusterPath is the shard-map file /v1/cluster/reload re-reads.
	clusterPath string
	// syncer, when non-nil, is this node's anti-entropy reconciler:
	// /v1/stats reports it and /v1/cluster/antientropy sweeps through it.
	syncer *cluster.Syncer
	// traceSample is the head-sampling probability in [0,1]: the fraction of
	// root traces retained without a tail trigger.  1 keeps everything.
	traceSample float64
	// traceSlow is the tail-retention latency threshold: any request at or
	// above it is retained regardless of the head decision.  0 falls back to
	// slowRequest.
	traceSlow time.Duration
	// traceStore overrides the node's trace store (tests); nil has
	// newAPIHandler build one of traceRetained capacity.
	traceStore *obs.TraceStore
	// traceRetained caps the retained trace ring (0: the store default).
	traceRetained int
	// slo, when non-nil, is the node's SLO burn-rate monitor.
	slo *obs.SLOMonitor
}

func defaultServeOptions() serveOptions {
	return serveOptions{
		requestTimeout: 30 * time.Second,
		maxBodyBytes:   8 << 20,
		maxInflight:    64,
		slowRequest:    time.Second,
		traceSample:    1,
	}
}

// version identifies the build in kamel_build_info; stamped by
// -ldflags "-X main.version=..." at release time.
var version = "dev"

// newAPIHandler builds the HTTP routing table wrapped in the hardening
// middleware (outermost first: panic recovery → load shedding → per-request
// timeout → body size cap); factored out of runServe so tests can drive the
// full surface through httptest.
func newAPIHandler(sys *core.System, opts serveOptions) http.Handler {
	reg := sys.Obs()
	s := &apiServer{
		sys: sys, opts: opts,
		shed: reg.Counter("kamel_http_shed_total",
			"Requests rejected with 429 by the concurrency limiter."),
		panics: reg.Counter("kamel_http_panics_total",
			"Handler panics recovered into 500 responses."),
		timeouts: reg.Counter("kamel_http_timeouts_total",
			"Requests whose per-request deadline expired while handling."),
		hists:  make(map[string]*obs.Histogram),
		traces: opts.traceStore,
		slo:    opts.slo,
	}
	if s.traces == nil {
		s.traces = obs.NewTraceStore(opts.traceRetained, 0, reg)
	}
	if opts.maxInflight > 0 {
		s.admission = batcher.NewAdmission(batcher.AdmissionOptions{
			MaxLimit: opts.maxInflight,
			Registry: reg,
		})
		// The controller's congestion signal is the batcher's per-item
		// queue wait.
		sys.Batcher().SetQueueWaitObserver(s.admission.ObserveQueueDelay)
	}
	// Build and deployment identity: which binary, token space, and
	// replication factor this node runs.  Value is constant 1; the labels are
	// the payload.
	replicas := 0
	if opts.router != nil {
		replicas = opts.router.Map().ReplicaCount()
	}
	reg.GaugeFunc("kamel_build_info",
		"Build and deployment identity; value is always 1.",
		func() float64 { return 1 },
		obs.L("version", version),
		obs.L("tokenizer", sys.Config().Tokenizer),
		obs.L("replicas", strconv.Itoa(replicas)))
	mux := http.NewServeMux()
	mux.Handle("/v1/train", s.endpoint(http.MethodPost, s.handleTrain))
	mux.Handle("/v1/impute", s.endpoint(http.MethodPost, s.handleImpute))
	mux.Handle("/v1/impute/batch", s.endpoint(http.MethodPost, s.handleImputeBatch))
	mux.Handle("/v1/stats", s.endpoint(http.MethodGet, s.handleStats))
	mux.Handle("/v1/cluster/manifest", s.endpoint(http.MethodGet, s.handleClusterManifest))
	mux.Handle("/v1/cluster/model", s.endpoint(http.MethodGet, s.handleClusterModel))
	mux.Handle("/v1/cluster/antientropy", s.endpoint(http.MethodPost, s.handleClusterAntiEntropy))
	mux.Handle("/v1/cluster/reload", s.endpoint(http.MethodPost, s.handleClusterReload))
	mux.Handle("/v1/traces", s.endpoint(http.MethodGet, s.handleTraces))
	mux.Handle("/v1/traces/", s.endpoint(http.MethodGet, s.handleTraceDetail))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			// Unknown routes — including the removed pre-versioning /api/*
			// aliases — get a structured 404, not the demo page.
			writeError(w, http.StatusNotFound, codeNotFound,
				"no route "+r.URL.Path+" (the /api/* aliases were removed; use /v1/*)")
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, demoPage)
	})
	var h http.Handler = mux
	h = s.limitBody(h)
	h = s.withRequestTimeout(h)
	h = s.admitLoad(h)
	h = s.recoverPanics(h)
	h = s.observe(h)
	return h
}

// recoverPanics converts a handler panic into a structured 500 instead of
// killing the connection (and, for a panicking goroutine, the process).
func (s *apiServer) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Inc()
				s.logger().Error("panic in handler",
					"component", "serve", "method", r.Method, "path", r.URL.Path,
					"request_id", obs.RequestIDFrom(r.Context()), "panic", fmt.Sprint(rec))
				// Best effort: if the handler already started the response
				// this write is a no-op on the status line.
				writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// isProbe reports whether the path is a health probe, which must stay
// responsive under overload and never be shed or timed out.
func isProbe(path string) bool { return path == "/healthz" || path == "/readyz" }

// headerPriority resolves a request's admission priority before its body is
// readable: the X-Kamel-Priority header (set by clients and by cluster
// forwards) wins; otherwise the endpoint's nature decides — the batch and
// train endpoints default to bulk, everything else to interactive.  The JSON
// body's priority field remains the authority for the dispatch lane; a body
// that contradicts the header only affects which lane the work runs in, not
// the (already made) admission decision.
func headerPriority(r *http.Request) batcher.Priority {
	def := batcher.Interactive
	if r.URL.Path == "/v1/impute/batch" || r.URL.Path == "/v1/train" {
		def = batcher.Bulk
	}
	pri, _ := batcher.ParsePriority(r.Header.Get(obs.HeaderPriority), def)
	return pri
}

// admitLoad is the overload-protection middleware: the adaptive queue-delay
// controller admits a request immediately or sheds it with 429 + Retry-After
// — shedding, not queueing, keeps latency bounded when offered load exceeds
// capacity.
func (s *apiServer) admitLoad(next http.Handler) http.Handler {
	if s.admission == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isOps(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		client := r.Header.Get(obs.HeaderClient)
		pri := headerPriority(r)
		// Bind the admission baggage so cluster forwards carry the true
		// tenant and priority to the owning peer's controller.
		ctx := obs.ContextWithClientID(r.Context(), client)
		ctx = obs.ContextWithPriorityLabel(ctx, pri.String())
		release, shed := s.admission.Admit(client, pri)
		if shed != nil {
			s.shed.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(shed.RetryAfter))
			writeErrorTraced(w, r, http.StatusTooManyRequests, codeOverloaded,
				fmt.Sprintf("admission shed (%s): concurrency limit %d, queue delay ~%.1fms",
					shed.Reason, shed.Limit, shed.QueueDelayMS))
			return
		}
		defer release()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withRequestTimeout bounds each request's context so a slow imputation (or
// a stuck client) cannot hold a limiter slot forever.
func (s *apiServer) withRequestTimeout(next http.Handler) http.Handler {
	if s.opts.requestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isOps(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.opts.requestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.timeouts.Inc()
		}
	})
}

// limitBody caps request body sizes so one oversized POST cannot exhaust
// memory; handlers surface the violation as a structured 413.
func (s *apiServer) limitBody(next http.Handler) http.Handler {
	if s.opts.maxBodyBytes <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.maxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

func (s *apiServer) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// handleReadyz reports 200 only once the system can serve model-based
// imputations (trained or loaded models); load balancers use it to keep
// traffic away from instances that would answer every request with 409.
// A system whose models are disk-resident additionally reports "warming"
// (503) until the root model has been paged in once, so traffic is not
// admitted while the repository directory is unreadable.
func (s *apiServer) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.sys.Ready() {
		writeError(w, http.StatusServiceUnavailable, codeNotTrained, "no models trained or loaded yet")
		return
	}
	if !s.warmed.Load() {
		if err := s.sys.WarmRoot(r.Context()); err != nil {
			writeError(w, http.StatusServiceUnavailable, codeWarming,
				"warming model cache: "+err.Error())
			return
		}
		s.warmed.Store(true)
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// endpoint enforces the allowed method (and, for POSTs, a JSON Content-Type)
// before delegating.
func (s *apiServer) endpoint(method string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, codeBadRequest, method+" required")
			return
		}
		if method == http.MethodPost && !jsonContentType(r) {
			writeError(w, http.StatusUnsupportedMediaType, codeBadRequest, "Content-Type must be application/json")
			return
		}
		h(w, r)
	})
}

// jsonContentType accepts application/json (with any parameters).  An absent
// Content-Type is tolerated for curl-friendliness; anything else is not.
func jsonContentType(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && mt == "application/json"
}

// decodeBody decodes a JSON request body into v, writing the structured
// error response (and returning false) on failure.  An oversized body —
// truncated by the limitBody middleware — maps to 413 rather than 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, codeBadRequest, "decoding request body: "+err.Error())
		return false
	}
	return true
}

// wireTrainRequest is the /v1/train request: a bare JSON array of
// trajectories (the public shape), or the envelope the replicated fan-out
// sends — {"trajectories": [...], "tokenizer_spec": {...}} — carrying the
// gateway's frozen tokenizer spec so every replica-group member trains in
// one token space instead of deriving its own from its sub-batch.
type wireTrainRequest struct {
	Trajectories  []wireTraj      `json:"trajectories"`
	TokenizerSpec *tokenizer.Spec `json:"tokenizer_spec,omitempty"`
}

func (b *wireTrainRequest) UnmarshalJSON(data []byte) error {
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		return json.Unmarshal(data, &b.Trajectories)
	}
	type bare wireTrainRequest // shed the method to avoid recursing
	return json.Unmarshal(data, (*bare)(b))
}

func (s *apiServer) handleTrain(w http.ResponseWriter, r *http.Request) {
	var req wireTrainRequest
	if !decodeBody(w, r, &req) {
		return
	}
	trajs := req.Trajectories
	if len(trajs) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty training batch")
		return
	}
	if req.TokenizerSpec != nil {
		// A fan-out gateway offered its frozen spec: adopt it (no-op when
		// already frozen on the same spec; loud refusal on a different one).
		if err := s.sys.AdoptTokenizerSpec(*req.TokenizerSpec); err != nil {
			writeError(w, http.StatusConflict, codeConflict, err.Error())
			return
		}
	}
	if s.routeTrain(w, r, trajs) {
		return // replicated deployment: fanned out to each replica group
	}
	if err := s.sys.TrainContext(r.Context(), fromWire(trajs)); err != nil {
		writeErrorTraced(w, r, http.StatusInternalServerError, codeInternal, err.Error())
		return
	}
	writeJSON(w, s.sys.SystemStats())
}

// admissionContext applies a request's admission fields: deadline_ms bounds
// the context (tightening, never loosening, the server-side request timeout)
// and priority selects the batcher's dispatch lane.  ok=false means the
// fields were invalid and the 400 has been written; otherwise the caller owns
// the returned cancel.
func admissionContext(w http.ResponseWriter, r *http.Request, deadlineMS int64, priority string, def batcher.Priority) (context.Context, context.CancelFunc, bool) {
	pri, ok := batcher.ParsePriority(priority, def)
	if !ok {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("unknown priority %q (want %q or %q)", priority, "interactive", "bulk"))
		return nil, nil, false
	}
	if deadlineMS < 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "deadline_ms must be non-negative")
		return nil, nil, false
	}
	ctx := core.WithPriority(r.Context(), pri)
	// The body's priority is authoritative; rebind the forward-propagation
	// baggage in case it contradicts the admission header.
	ctx = obs.ContextWithPriorityLabel(ctx, pri.String())
	cancel := context.CancelFunc(func() {})
	if deadlineMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
	}
	return ctx, cancel, true
}

// writeImputeError maps an engine error onto the wire, adding Retry-After on
// overload so shed clients back off like limiter-shed ones do, and the trace
// ID on the statuses whose retained trace is worth pulling.  The backoff and
// the queue-delay estimate in the message come from the live admission
// controller state.
func (s *apiServer) writeImputeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := imputeErrStatus(err)
	msg := err.Error()
	if status == http.StatusTooManyRequests {
		retry := 1
		if s.admission != nil {
			var delayMS float64
			retry, delayMS = s.admission.RetryAfterHint()
			msg = fmt.Sprintf("%s (queue delay ~%.1fms)", msg, delayMS)
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
	}
	if status == http.StatusTooManyRequests || status >= 500 {
		writeErrorTraced(w, r, status, code, msg)
		return
	}
	writeError(w, status, code, msg)
}

func (s *apiServer) handleImpute(w http.ResponseWriter, r *http.Request) {
	var req wireImputeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, ok := admissionContext(w, r, req.DeadlineMS, req.Priority, batcher.Interactive)
	if !ok {
		return
	}
	defer cancel()
	r = r.WithContext(ctx)
	if s.routeSingle(w, r, req) {
		return // owned by a peer: forwarded (or degraded) by the cluster layer
	}
	dense, stats, err := s.sys.ImputeContext(ctx, fromWire([]wireTraj{req.wireTraj})[0])
	if err != nil {
		s.writeImputeError(w, r, err)
		return
	}
	writeJSON(w, wireImputeResult{
		Trajectory: toWirePtr(dense),
		Segments:   stats.Segments,
		Failures:   stats.Failures,
		Degraded:   stats.Degraded,
	})
}

func (s *apiServer) handleImputeBatch(w http.ResponseWriter, r *http.Request) {
	var req wireBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ctx, cancel, ok := admissionContext(w, r, req.DeadlineMS, req.Priority, batcher.Bulk)
	if !ok {
		return
	}
	defer cancel()
	r = r.WithContext(ctx)
	if s.routeBatch(w, r, req) {
		return // spans shards: scatter-gathered by the cluster layer
	}
	results, err := s.sys.ImputeBatch(ctx, fromWire(req.Trajectories))
	if err != nil {
		s.writeImputeError(w, r, err)
		return
	}
	writeJSON(w, wireBatchResponse{Results: wireResults(results)})
}

// wireResults maps engine batch results to their wire form, in order.
func wireResults(results []core.BatchResult) []wireImputeResult {
	items := make([]wireImputeResult, len(results))
	for i, res := range results {
		if res.Err != nil {
			items[i] = wireImputeResult{Error: wireErrorOf(res.Err)}
			continue
		}
		items[i] = wireImputeResult{
			Trajectory: toWirePtr(res.Trajectory),
			Segments:   res.Stats.Segments,
			Failures:   res.Stats.Failures,
			Degraded:   res.Stats.Degraded,
		}
	}
	return items
}

// wireStats is the /v1/stats document: the system's trained-state summary
// plus the serving layer's own resilience counters.
type wireStats struct {
	core.Stats
	SheddedRequests int64 `json:"shedded_requests"`
	PanicsRecovered int64 `json:"panics_recovered"`
	RequestTimeouts int64 `json:"request_timeouts"`
	// Admission is the admission controller's live state (current limit,
	// observed queue delay, quota sheds); absent when -max-inflight is 0.
	Admission *batcher.AdmissionStats `json:"admission,omitempty"`
	// Cluster is present only on sharded deployments: this node's routing
	// state and forwarding/degradation counters (includes the requests
	// answered 503 because every owning peer was unreachable).
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// AntiEntropy is the replica syncer's cumulative accounting; present
	// only on sharded deployments.
	AntiEntropy *cluster.SyncStats `json:"anti_entropy,omitempty"`
}

// statsDoc reads the serving counters straight from the metrics registry, so
// /v1/stats and /metrics can never disagree.
func (s *apiServer) statsDoc() wireStats {
	doc := wireStats{
		Stats:           s.sys.SystemStats(),
		SheddedRequests: s.shed.Value(),
		PanicsRecovered: s.panics.Value(),
		RequestTimeouts: s.timeouts.Value(),
	}
	if s.admission != nil {
		as := s.admission.Stats()
		doc.Admission = &as
	}
	if rt := s.opts.router; rt != nil {
		cs := rt.ClusterStats()
		doc.Cluster = &cs
	}
	if s.opts.syncer != nil {
		ss := s.opts.syncer.Stats()
		doc.AntiEntropy = &ss
	}
	return doc
}

func (s *apiServer) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.statsDoc())
}

// imputeErrStatus maps an imputation error to its HTTP status and API code.
func imputeErrStatus(err error) (int, string) {
	if errors.Is(err, core.ErrNotTrained) {
		return http.StatusConflict, codeNotTrained
	}
	if errors.Is(err, core.ErrOverloaded) {
		// The admission batcher's per-model queue is full: shed, like the
		// concurrency limiter does, rather than queue without bound.
		return http.StatusTooManyRequests, codeOverloaded
	}
	if errors.Is(err, batcher.ErrClosed) {
		return http.StatusServiceUnavailable, codeShuttingDown
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable, codeTimeout
	}
	if errors.Is(err, context.Canceled) {
		// The request context was cancelled — the client disconnected.  Not a
		// server error: below 500 it burns no SLO error budget and is not
		// tail-retained as an error trace.
		return statusClientClosed, codeClientClosed
	}
	return http.StatusInternalServerError, codeInternal
}

// runServe starts the HTTP API with a graceful lifecycle: SIGINT/SIGTERM
// stops accepting connections and drains in-flight requests before exiting.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	work := fs.String("work", "", "working directory (required)")
	addr := fs.String("addr", ":8080", "listen address")
	steps := fs.Int("steps", 0, "BERT training steps")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown drain timeout")
	def := defaultServeOptions()
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server read timeout (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 60*time.Second, "http.Server write timeout (0 disables)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server idle keep-alive timeout (0 disables)")
	reqTimeout := fs.Duration("request-timeout", def.requestTimeout, "per-request handling timeout (0 disables)")
	maxBody := fs.Int64("max-body-bytes", def.maxBodyBytes, "maximum request body size in bytes (0 disables)")
	maxInflight := fs.Int("max-inflight", def.maxInflight, "ceiling of the adaptive concurrency limit: requests beyond the limit are shed with 429 (0 disables admission control)")
	slowReq := fs.Duration("slow-request", def.slowRequest, "log requests at warn level with a per-stage breakdown when they take at least this long (0 disables)")
	logLevel := fs.String("log-level", "info", "minimum structured-log level: debug, info, warn, error")
	cacheBytes := fs.Int64("model-cache-bytes", 0, "model cache budget in bytes (0 sizes from available memory, <0 unbounded)")
	batchMaxSize := fs.Int("batch-max-size", 0, "admission batching: queries per coalesced BERT pass (0 uses the default)")
	batchMaxQueue := fs.Int("batch-max-queue", 0, "admission batching: queued queries per model before shedding with 429 (0 uses the default, <0 unbounded)")
	batchMaxStarve := fs.Duration("batch-max-starve", 0, "admission batching: bulk-lane wait beyond which dispatches reserve slots for bulk (0 uses the default, <0 strict priority)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	clusterConfig := fs.String("cluster-config", "", "shard map JSON file enabling horizontal sharding (empty: single node)")
	clusterSelf := fs.String("cluster-self", "", "this process's shard id in the shard map (required with -cluster-config)")
	antiEntropy := fs.Duration("anti-entropy-interval", 30*time.Second, "background anti-entropy sweep period reconciling model versions across replicas (0 disables the loop; requires -cluster-config)")
	rebuildWorkers := fs.Int("rebuild-workers", 0, "concurrent per-cell model trainings per maintenance round (0 sizes from CPUs, 1 is serial)")
	traceSample := fs.Float64("trace-sample", def.traceSample, "head-sampling probability for request traces in [0,1]; errored or slow requests are retained regardless")
	traceSlow := fs.Duration("trace-slow", 0, "tail-retention latency threshold: requests at least this slow are always retained (0 uses -slow-request)")
	traceRetained := fs.Int("trace-retained", 0, "retained-trace ring capacity per node (0 uses the default)")
	sloWindow := fs.Duration("slo-window", time.Minute, "SLO burn-rate rolling window")
	sloErrBudget := fs.Float64("slo-error-budget", 0.01, "tolerated error-rate fraction within the SLO window")
	sloLatTarget := fs.Duration("slo-latency-target", 500*time.Millisecond, "requests at least this slow burn the latency budget")
	sloLatBudget := fs.Float64("slo-latency-budget", 0.05, "tolerated slow-request fraction within the SLO window")
	sloBurn := fs.Float64("slo-burn-threshold", 1.0, "burn rate at or above which an evaluation counts as burning")
	sloProfileDir := fs.String("slo-profile-dir", "", "directory for CPU profiles captured on sustained SLO burn (empty disables capturing)")
	sloProfileEvery := fs.Duration("slo-profile-every", 10*time.Minute, "minimum interval between SLO-triggered CPU captures")
	sloProfilesMax := fs.Int("slo-profiles-max", 8, "maximum CPU profiles kept on disk; oldest pruned first")
	registerTokenizerFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *work == "" {
		return fmt.Errorf("serve: -work is required")
	}
	if *clusterConfig != "" && *clusterSelf == "" {
		return fmt.Errorf("serve: -cluster-self is required with -cluster-config")
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("serve: -log-level: %w", err)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	// Library-level warnings (core, store) flow through the same handler.
	slog.SetDefault(logger)
	cfg := systemConfig(*work, *steps, "", false, false, false)
	cfg.ModelCacheBytes = *cacheBytes
	cfg.ShardID = *clusterSelf
	cfg.BatchMaxSize = *batchMaxSize
	cfg.BatchMaxQueue = *batchMaxQueue
	cfg.BatchMaxStarve = *batchMaxStarve
	cfg.RebuildWorkers = *rebuildWorkers
	sys, err := core.New(cfg)
	if err != nil {
		return err
	}
	defer sys.Close()
	// Best effort: load previously persisted models so a restart can serve
	// imputations immediately.
	if err := sys.LoadModels(); err == nil {
		logger.Info("loaded persisted models", "component", "serve")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The single background maintainer (§4.2): while it runs, /v1/train
	// returns once the batch is durable and model rebuilds happen here,
	// committed to disk and published without pausing imputation.
	go sys.Maintain(ctx)

	if *pprofAddr != "" {
		go servePprof(ctx, *pprofAddr)
	}

	// Horizontal sharding: load the shard map, start the router (health
	// probing runs for the process lifetime), and reload the map on SIGHUP so
	// a rollout never needs a restart.
	var router *cluster.Router
	var syncer *cluster.Syncer
	if *clusterConfig != "" {
		m, err := cluster.LoadMap(*clusterConfig)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		router, err = cluster.New(m, cluster.Options{
			Self:     *clusterSelf,
			Logger:   logger,
			Registry: sys.Obs(),
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		go router.StartProbing(ctx)
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for {
				select {
				case <-hup:
					if _, _, err := reloadShardMap(router, *clusterConfig); err != nil {
						logger.Error("shard map reload failed", "component", "serve", "err", err)
					}
				case <-ctx.Done():
					return
				}
			}
		}()
		// Anti-entropy: pull newer model versions from replica peers so a
		// node that missed train fan-outs converges without operator action.
		syncer = cluster.NewSyncer(router, replicaStore{sys}, cluster.SyncerOptions{
			Interval: *antiEntropy,
			Logger:   logger,
			Registry: sys.Obs(),
		})
		if *antiEntropy > 0 {
			go syncer.Run(ctx)
		}
		logger.Info("cluster routing enabled", "component", "serve",
			"self", *clusterSelf, "shards", len(m.Shards), "generation", m.Generation,
			"replicas", m.ReplicaCount(), "anti_entropy", antiEntropy.String())
	}

	// The SLO monitor watches every request outcome for budget burn and, on
	// sustained burn, captures a CPU profile of this very process.
	slo := obs.NewSLOMonitor(obs.SLOConfig{
		Window:        *sloWindow,
		ErrorBudget:   *sloErrBudget,
		LatencyTarget: *sloLatTarget,
		LatencyBudget: *sloLatBudget,
		BurnThreshold: *sloBurn,
		ProfileDir:    *sloProfileDir,
		ProfileEvery:  *sloProfileEvery,
		MaxProfiles:   *sloProfilesMax,
	}, sys.Obs(), logger)
	go slo.Run(ctx)

	opts := serveOptions{
		requestTimeout: *reqTimeout,
		maxBodyBytes:   *maxBody,
		maxInflight:    *maxInflight,
		slowRequest:    *slowReq,
		logger:         logger,
		router:         router,
		clusterPath:    *clusterConfig,
		syncer:         syncer,
		traceSample:    *traceSample,
		traceSlow:      *traceSlow,
		traceRetained:  *traceRetained,
		slo:            slo,
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newAPIHandler(sys, opts),
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("listening", "component", "serve", "addr", *addr)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal during the drain kills the process the hard way
	logger.Info("shutting down", "component", "serve", "drain_timeout", drain.String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		// Drain timed out: close outright, cancelling in-flight request
		// contexts (the imputation engine aborts between BERT calls).
		srv.Close()
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	return nil
}

// servePprof runs the net/http/pprof handlers on their own mux and listener,
// deliberately outside the API server: the hardening middleware (timeouts,
// load shedding, body caps) must never apply to profiling endpoints — a
// 30-second CPU profile would be killed by the request timeout — and the
// profiler should stay reachable when the API is shedding load.  Bind it to
// localhost; it is an operator surface, not part of the public API.
func servePprof(ctx context.Context, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	fmt.Fprintf(os.Stderr, "serve: pprof listening on %s\n", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "serve: pprof server: %v\n", err)
	}
}

// wireTraj is the HTTP JSON form of a trajectory.
type wireTraj struct {
	ID     string       `json:"id"`
	Points [][3]float64 `json:"points"` // [lat, lng, unixSeconds]
}

// wireImputeRequest is the /v1/impute request: one trajectory (fields
// promoted flat) plus the optional admission fields.
type wireImputeRequest struct {
	wireTraj
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	Priority   string `json:"priority,omitempty"`
}

// wireBatchRequest is the /v1/impute/batch request: either the envelope
// {"trajectories": [...], "deadline_ms": N, "priority": "..."} or — for
// compatibility — a bare JSON array of trajectories with default admission.
type wireBatchRequest struct {
	Trajectories []wireTraj `json:"trajectories"`
	DeadlineMS   int64      `json:"deadline_ms,omitempty"`
	Priority     string     `json:"priority,omitempty"`
}

func (b *wireBatchRequest) UnmarshalJSON(data []byte) error {
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		return json.Unmarshal(data, &b.Trajectories)
	}
	type bare wireBatchRequest // shed the method to avoid recursing
	return json.Unmarshal(data, (*bare)(b))
}

// wireError is the structured error shared by top-level responses and
// per-element batch failures: {"code": "...", "message": "..."}.  TraceID is
// set on the failure classes whose retained trace an operator will want to
// pull afterwards (429/500/503), joining the response to /v1/traces/{id}.
type wireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	TraceID string `json:"trace_id,omitempty"`
}

// wireErrorOf classifies err through the same table the top-level status
// mapping uses, so an element's code inside a batch matches what the same
// failure would return as a whole-request error.
func wireErrorOf(err error) *wireError {
	_, code := imputeErrStatus(err)
	return &wireError{Code: code, Message: err.Error()}
}

// wireImputeResult is one imputed trajectory on the wire; Error is set (and
// Trajectory omitted) when only that trajectory failed inside a batch.
type wireImputeResult struct {
	Trajectory *wireTraj  `json:"trajectory,omitempty"`
	Segments   int        `json:"segments"`
	Failures   int        `json:"failures"`
	Degraded   int        `json:"degraded"`
	Error      *wireError `json:"error,omitempty"`
}

func fromWire(in []wireTraj) []geo.Trajectory {
	out := make([]geo.Trajectory, len(in))
	for i, tr := range in {
		out[i] = geo.Trajectory{ID: tr.ID}
		for _, p := range tr.Points {
			out[i].Points = append(out[i].Points, geo.Point{Lat: p[0], Lng: p[1], T: p[2]})
		}
	}
	return out
}

func toWire(tr geo.Trajectory) wireTraj {
	out := wireTraj{ID: tr.ID}
	for _, p := range tr.Points {
		out.Points = append(out.Points, [3]float64{p.Lat, p.Lng, p.T})
	}
	return out
}

func toWirePtr(tr geo.Trajectory) *wireTraj {
	w := toWire(tr)
	return &w
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire; all that is left is to
		// note the failure server-side.
		fmt.Fprintf(os.Stderr, "serve: encoding response: %v\n", err)
	}
}

// writeError emits the structured JSON error envelope shared by every
// endpoint: {"error": {"code": "...", "message": "..."}}.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeErrorID(w, status, code, msg, "")
}

// writeErrorTraced is writeError carrying the request's trace ID, for the
// failure classes (shed, panic, shard-down, engine failure) whose retained
// trace the client will want to look up afterwards.
func writeErrorTraced(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	writeErrorID(w, status, code, msg, requestTraceID(r))
}

// requestTraceID returns the distributed trace ID bound to the request, or "".
func requestTraceID(r *http.Request) string {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		return tr.TraceID
	}
	return ""
}

func writeErrorID(w http.ResponseWriter, status int, code, msg, traceID string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	doc := map[string]wireError{"error": {Code: code, Message: msg, TraceID: traceID}}
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "serve: encoding error response: %v\n", err)
	}
}

// demoPage is a minimal self-contained demo console.
const demoPage = `<!doctype html>
<title>KAMEL demo</title>
<h1>KAMEL trajectory imputation</h1>
<p>POST <code>/v1/train</code> a JSON array of {id, points:[[lat,lng,t],...]} to train.</p>
<p>POST <code>/v1/impute</code> one such object to impute, or <code>/v1/impute/batch</code>
an array of them; GET <code>/v1/stats</code> for system state.</p>
<p>Imputation requests take optional <code>deadline_ms</code> and
<code>priority</code> ("interactive" or "bulk") admission fields; errors come
back as <code>{"error": {"code", "message"}}</code>.
Liveness and readiness probes are at <code>/healthz</code> and <code>/readyz</code>.</p>
<pre id="stats">loading stats…</pre>
<script>
fetch('/v1/stats').then(r => r.json()).then(s => {
  document.getElementById('stats').textContent = JSON.stringify(s, null, 2);
});
</script>`
