package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/obs"
	"kamel/internal/roadnet"
	"kamel/internal/trajgen"
)

// newObsFixture builds the full API handler over a fresh system, returning
// both so tests can drive requests synchronously with httptest.NewRecorder
// (which, unlike a live server, guarantees middleware side effects like log
// lines and histogram updates are visible when ServeHTTP returns).
func newObsFixture(t *testing.T, opts serveOptions) (*core.System, http.Handler) {
	t.Helper()
	if opts.logger == nil {
		opts.logger = slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	}
	sys, err := core.New(systemConfig(t.TempDir(), 90, "", true, false, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, newAPIHandler(sys, opts)
}

func doReq(h http.Handler, method, target, body string, hdr map[string]string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, target, rd)
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// trainObsFixture trains a small model through the core API so the imputation
// endpoints serve real work.
func trainObsFixture(t *testing.T, sys *core.System) []wireTraj {
	t.Helper()
	city := roadnet.DefaultCityConfig()
	city.Width, city.Height = 1500, 1500
	net := roadnet.GenerateCity(city)
	proj := geo.NewProjection(41.15, -8.61)
	trajs, err := trajgen.Generate(net, proj, trajgen.DefaultConfig(30))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Train(trajs[:25]); err != nil {
		t.Fatal(err)
	}
	var sparse []wireTraj
	for _, tr := range trajs[25:28] {
		sparse = append(sparse, toWire(tr.Sparsify(800)))
	}
	return sparse
}

// TestServeMetricsEndpoint: /metrics speaks the Prometheus text format,
// pre-registers the pipeline stage histograms, and its request counters move
// when API traffic flows.
func TestServeMetricsEndpoint(t *testing.T) {
	_, h := newObsFixture(t, defaultServeOptions())

	rec := doReq(h, http.MethodGet, "/metrics", "", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("metrics Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# HELP kamel_stage_duration_seconds",
		"# TYPE kamel_stage_duration_seconds histogram",
		`kamel_stage_duration_seconds_bucket{stage="impute.predict",le="+Inf"}`,
		`kamel_stage_duration_seconds_bucket{stage="impute.tokenize",le="+Inf"}`,
		"kamel_modelcache_load_seconds_count",
		"kamel_http_shed_total 0",
		"kamel_http_panics_total 0",
		"kamel_http_timeouts_total 0",
		"kamel_impute_requests_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// /metrics itself is an operator surface: it must not appear in the
	// request-duration series.
	if strings.Contains(body, `route="other"`) {
		t.Error("operator scrape was recorded as API traffic")
	}

	// API traffic feeds the per-route histogram and is visible on re-scrape.
	if rec := doReq(h, http.MethodGet, "/v1/stats", "", nil); rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	body = doReq(h, http.MethodGet, "/metrics", "", nil).Body.String()
	if !strings.Contains(body, `kamel_http_request_duration_seconds_count{route="/v1/stats",status="200"} 1`) {
		t.Errorf("request-duration series missing after traffic:\n%s", grepLines(body, "kamel_http_request_duration_seconds_count"))
	}
}

// grepLines returns the lines of s containing sub, for failure messages.
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestServeRequestID: a generated ID is echoed in X-Request-ID, and a
// client-supplied one is honored verbatim.
func TestServeRequestID(t *testing.T) {
	_, h := newObsFixture(t, defaultServeOptions())

	rec := doReq(h, http.MethodGet, "/v1/stats", "", nil)
	id := rec.Header().Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(id) {
		t.Errorf("generated request ID %q is not 16 hex chars", id)
	}
	rec2 := doReq(h, http.MethodGet, "/v1/stats", "", nil)
	if rec2.Header().Get("X-Request-ID") == id {
		t.Error("request IDs must differ between requests")
	}

	rec3 := doReq(h, http.MethodGet, "/v1/stats", "", map[string]string{"X-Request-ID": "client-chose-this"})
	if got := rec3.Header().Get("X-Request-ID"); got != "client-chose-this" {
		t.Errorf("client request ID not honored: got %q", got)
	}
}

// hasSpans reports whether a trace hop recorded a span of every given name.
func hasSpans(hop wireTraceHop, names ...string) bool {
	seen := map[string]bool{}
	for _, sp := range hop.Spans {
		seen[sp.Name] = true
	}
	for _, n := range names {
		if !seen[n] {
			return false
		}
	}
	return true
}

// TestServeTraceBreakdownAndSlowLog trains a model, then checks (a) the
// per-stage span breakdown the removed ?debug=1 payload carried is what the
// response's X-Kamel-Trace-ID resolves to at /v1/traces/{id} — and the
// parameter itself is ignored — and (b) a request over the slow-request
// threshold logs a warn line with its stages.
func TestServeTraceBreakdownAndSlowLog(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	var logBuf syncBuffer
	opts := defaultServeOptions()
	opts.slowRequest = 1 // nanosecond: every request is "slow"
	opts.logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	sys, h := newObsFixture(t, opts)
	sparse := trainObsFixture(t, sys)

	oneBody, _ := json.Marshal(sparse[0])
	rec := doReq(h, http.MethodPost, "/v1/impute?debug=1", string(oneBody), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("impute status %d: %s", rec.Code, rec.Body.String())
	}
	if strings.Contains(rec.Body.String(), `"debug"`) {
		t.Errorf("?debug=1 response still carries a debug key: %s", rec.Body.String())
	}
	traceRec := doReq(h, http.MethodGet, "/v1/traces/"+rec.Header().Get("X-Kamel-Trace-ID"), "", nil)
	if traceRec.Code != http.StatusOK {
		t.Fatalf("trace lookup status %d: %s", traceRec.Code, traceRec.Body.String())
	}
	var doc wireTraceDoc
	if err := json.Unmarshal(traceRec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Hops) != 1 || doc.Hops[0].DurationMS <= 0 {
		t.Fatalf("trace hops = %+v, want one timed hop", doc.Hops)
	}
	// The fixture serves one global model, so there is no impute.lookup.
	if !hasSpans(doc.Hops[0], "impute.tokenize", "impute.beam", "impute.predict", "impute.detok") {
		t.Errorf("trace hop lacks the imputation stage spans: %+v", doc.Hops[0].Spans)
	}

	// The requests above ran over the 1ns threshold: the log must carry
	// warn-level "slow request" lines with a stages attribute.
	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"slow request"`) {
		t.Fatalf("no slow-request log lines:\n%s", logs)
	}
	if !strings.Contains(logs, `"stages"`) || !strings.Contains(logs, "impute.beam") {
		t.Errorf("slow-request log missing stage breakdown:\n%s", logs)
	}
	if !strings.Contains(logs, `"request_id"`) {
		t.Error("log lines missing request_id")
	}
}

// TestServeClientDisconnectIsNotServerError cancels a /v1/impute request's
// context while its first BERT batch is being dispatched — what a client that
// gives up mid-request does — and checks the outcome is accounted as the
// client's: status 499 in the route histogram, no 5xx series, no SLO error
// burn, no error-retained trace.
func TestServeClientDisconnectIsNotServerError(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	opts := defaultServeOptions()
	opts.traceSample = 0 // only a tail trigger could retain the trace
	opts.slowRequest = time.Hour
	opts.slo = obs.NewSLOMonitor(obs.SLOConfig{MinRequests: 1}, nil, nil)
	sys, h := newObsFixture(t, opts)
	sparse := trainObsFixture(t, sys)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The observer runs on the dispatcher as the request's first queries
	// leave the queue: the request is in flight, mid-search.
	sys.Batcher().SetQueueWaitObserver(func(time.Duration) { cancel() })
	body, _ := json.Marshal(sparse[0])
	req := httptest.NewRequest(http.MethodPost, "/v1/impute", bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ctx.Err() == nil {
		t.Fatal("the request never reached the batcher; nothing was cancelled")
	}
	if rec.Code != statusClientClosed || !strings.Contains(rec.Body.String(), codeClientClosed) {
		t.Fatalf("cancelled impute: status %d body %s, want %d %s",
			rec.Code, rec.Body.String(), statusClientClosed, codeClientClosed)
	}

	metrics := doReq(h, http.MethodGet, "/metrics", "", nil).Body.String()
	if !strings.Contains(metrics, `kamel_http_request_duration_seconds_count{route="/v1/impute",status="499"} 1`) {
		t.Errorf("no 499 sample in the route histogram:\n%s", grepLines(metrics, "kamel_http_request_duration_seconds_count"))
	}
	if strings.Contains(metrics, `status="5`) {
		t.Errorf("a 5xx series moved:\n%s", grepLines(metrics, `status="5`))
	}
	if errBurn, _, _ := opts.slo.EvalOnce(); errBurn != 0 {
		t.Errorf("SLO error burn = %v after a client disconnect, want 0", errBurn)
	}
	traceRec := doReq(h, http.MethodGet, "/v1/traces/"+rec.Header().Get("X-Kamel-Trace-ID"), "", nil)
	var doc wireTraceDoc
	if err := json.Unmarshal(traceRec.Body.Bytes(), &doc); err != nil || len(doc.Hops) != 1 {
		t.Fatalf("trace lookup: status %d, err %v, body %s", traceRec.Code, err, traceRec.Body.String())
	}
	if hop := doc.Hops[0]; hop.Status != statusClientClosed || hop.Retained != "" {
		t.Errorf("trace hop = status %d retained %q, want %d and not retained", hop.Status, hop.Retained, statusClientClosed)
	}
}

// syncBuffer is a locked bytes.Buffer: slog handlers may be driven from
// concurrent requests.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
