package main

import (
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kamel/internal/obs"
)

// This file is the HTTP face of the observability layer (internal/obs): the
// request-observation middleware that traces, times, and logs every API
// request, and the /metrics Prometheus endpoint.

// isOps reports whether the path is an operator surface — health probes and
// the metrics scrape — which must stay responsive under overload and is
// therefore excluded from shedding, timeouts, and request logging.
func isOps(path string) bool { return isProbe(path) || path == "/metrics" }

// apiRoutes is the closed set of route labels for the per-route latency
// histograms.  Bounding the label set here keeps series cardinality fixed no
// matter what paths clients probe.
var apiRoutes = map[string]bool{
	"/v1/train": true, "/v1/impute": true, "/v1/impute/batch": true,
	"/v1/stats": true, "/v1/cluster/reload": true, "/v1/traces": true,
	"/": true,
}

// normalizeRoute maps a request path to its histogram label: a known route
// keeps its path, trace lookups collapse their ID into a placeholder, and
// everything else collapses into "other".
func normalizeRoute(path string) string {
	if apiRoutes[path] {
		return path
	}
	if strings.HasPrefix(path, "/v1/traces/") {
		return "/v1/traces/{id}"
	}
	return "other"
}

// statusWriter captures the response status code for metrics and logging.
// WriteHeader is recorded once, matching net/http's superfluous-call rule;
// a body write without an explicit header is an implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// requestHist returns the latency histogram for one (route, status) pair,
// resolving through a local read-mostly cache so the steady state costs one
// RLock instead of a registry registration per request.
func (s *apiServer) requestHist(route, status string) *obs.Histogram {
	key := route + "|" + status
	s.histMu.RLock()
	h := s.hists[key]
	s.histMu.RUnlock()
	if h != nil {
		return h
	}
	h = s.sys.Obs().Histogram("kamel_http_request_duration_seconds",
		"HTTP request handling latency by route and status.", nil,
		obs.L("route", route), obs.L("status", status))
	s.histMu.Lock()
	s.hists[key] = h
	s.histMu.Unlock()
	return h
}

// sampleTrace is the head-sampling coin flip for a new root trace.
func (s *apiServer) sampleTrace() bool {
	p := s.opts.traceSample
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	return rand.Float64() < p
}

// traceSlowAt is the tail-retention latency threshold: -trace-slow when set,
// else the slow-request log threshold (0 disables slow retention).
func (s *apiServer) traceSlowAt() time.Duration {
	if s.opts.traceSlow > 0 {
		return s.opts.traceSlow
	}
	return s.opts.slowRequest
}

// node names this hop in trace records: the shard id on a clustered node,
// "local" otherwise.
func (s *apiServer) node() string {
	if rt := s.opts.router; rt != nil {
		return rt.Self()
	}
	return "local"
}

// observe is the outermost middleware: it assigns the request ID (honoring a
// client-sent X-Request-ID and echoing the effective one back), establishes
// the request's distributed trace — adopting an incoming Traceparent from an
// upstream hop, or minting a fresh root identity under head sampling — and
// binds it with the system registry to the context.  On completion it feeds
// the per-route histogram (with the trace ID as the bucket's exemplar), the
// SLO monitor, and the trace store: head-sampled traces are retained, and any
// request that errored (5xx/429) or ran slow is retained regardless of the
// head decision.  One structured log line is emitted — at warn level with the
// per-stage breakdown when the request exceeded the slow-request threshold.
// Operator surfaces (probes, /metrics) pass through untouched.
func (s *apiServer) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isOps(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewRequestID()
		}
		var tr *obs.Trace
		if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.HeaderTraceparent)); ok {
			tr = obs.NewChildTrace(tc)
		} else {
			tr = obs.NewRootTrace(s.sampleTrace())
		}
		w.Header().Set("X-Request-ID", reqID)
		w.Header().Set("X-Kamel-Trace-ID", tr.TraceID)
		ctx := obs.ContextWithRequestID(r.Context(), reqID)
		ctx = obs.With(ctx, tr, s.sys.Obs())
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)

		status := sw.status
		if status == 0 {
			status = http.StatusOK // handler wrote nothing: net/http sends 200
		}
		route := normalizeRoute(r.URL.Path)
		s.requestHist(route, strconv.Itoa(status)).ObserveExemplar(dur.Seconds(), tr.TraceID)
		s.slo.Observe(status, dur)

		slowAt := s.traceSlowAt()
		slow := slowAt > 0 && dur >= slowAt
		// Tail retention trumps the head decision — the reason label records
		// what actually kept the trace.
		reason := ""
		switch {
		case status >= 500 || status == http.StatusTooManyRequests:
			reason = obs.RetainError
		case slow:
			reason = obs.RetainSlow
		case tr.Sampled:
			reason = obs.RetainHead
		}
		s.traces.Add(obs.TraceRecord{
			TraceID:      tr.TraceID,
			SpanID:       tr.SpanID,
			ParentSpanID: tr.ParentSpanID,
			Node:         s.node(),
			Route:        route,
			Status:       status,
			Start:        tr.Start(),
			Duration:     dur,
			Spans:        tr.Records(),
			Dropped:      tr.Dropped(),
			Retained:     reason,
		})

		log := s.logger()
		attrs := []any{
			"component", "serve",
			"request_id", reqID,
			"trace_id", tr.TraceID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"duration_ms", float64(dur.Microseconds()) / 1000,
		}
		if s.opts.slowRequest > 0 && dur >= s.opts.slowRequest {
			log.Warn("slow request", append(attrs, "stages", stageAttr(tr))...)
			return
		}
		log.Info("request", attrs...)
	})
}

// stageAttr renders a trace's per-stage totals for a slow-request log line.
func stageAttr(tr *obs.Trace) []map[string]any {
	stages := tr.Stages()
	out := make([]map[string]any, len(stages))
	for i, st := range stages {
		out[i] = map[string]any{
			"name":     st.Name,
			"count":    st.Count,
			"total_ms": float64(st.Total.Microseconds()) / 1000,
		}
	}
	return out
}

// handleMetrics serves the registry in the Prometheus text exposition format.
func (s *apiServer) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, codeBadRequest, "GET required")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.sys.Obs().WritePrometheus(w); err != nil {
		s.logger().Error("writing metrics exposition", "component", "serve", "err", err)
	}
}
