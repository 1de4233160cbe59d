package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"kamel/internal/obs"
)

// traceJSON fetches one tracing-plane URL and decodes it, returning the
// status code so callers can assert error paths too.
func traceJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, raw)
		}
	}
	return resp.StatusCode
}

func isHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// waitTraceListed polls /v1/traces until the trace shows up: the observe
// middleware records the trace after the handler's response is flushed, so
// the client can race the store write by a hair.
func waitTraceListed(t *testing.T, base, query, traceID string) wireTraceSummary {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp wireTracesResponse
		if st := traceJSON(t, base+"/v1/traces"+query, &resp); st == http.StatusOK {
			for _, tr := range resp.Traces {
				if tr.TraceID == traceID {
					return tr
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in %s/v1/traces%s", traceID, base, query)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeTraceRetentionAndRetrieval: with head sampling at 1, an ordinary
// request is retained and retrievable after the fact — listed on /v1/traces,
// expanded by /v1/traces/{id}, and linked from the route histogram's
// exemplars — and the response announced its trace ID in a header.
func TestServeTraceRetentionAndRetrieval(t *testing.T) {
	opts := defaultServeOptions()
	opts.traceSample = 1
	ts := newTestServerOpts(t, opts)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Kamel-Trace-ID")
	if !isHexID(traceID, 32) {
		t.Fatalf("X-Kamel-Trace-ID = %q, want 32 hex chars", traceID)
	}

	sum := waitTraceListed(t, ts.URL, "?route=/v1/stats", traceID)
	if sum.Retained != obs.RetainHead {
		t.Errorf("retained = %q, want %q", sum.Retained, obs.RetainHead)
	}
	if sum.Node != "local" {
		t.Errorf("node = %q, want local on a single-node server", sum.Node)
	}
	if sum.Status != http.StatusOK {
		t.Errorf("status = %d, want 200", sum.Status)
	}

	var doc wireTraceDoc
	if st := traceJSON(t, ts.URL+"/v1/traces/"+traceID, &doc); st != http.StatusOK {
		t.Fatalf("trace detail status %d", st)
	}
	if doc.TraceID != traceID || len(doc.Hops) == 0 {
		t.Fatalf("detail doc = %+v, want one hop for %s", doc, traceID)
	}
	hop := doc.Hops[0]
	if hop.Route != "/v1/stats" || !isHexID(hop.SpanID, 16) || hop.ParentSpanID != "" {
		t.Errorf("hop = %+v, want a root /v1/stats hop with a 16-hex span id", hop)
	}

	// The listing carries the histogram exemplars; the stats request's bucket
	// must point at a retrievable trace.
	var listing wireTracesResponse
	if st := traceJSON(t, ts.URL+"/v1/traces", &listing); st != http.StatusOK {
		t.Fatalf("listing status %d", st)
	}
	foundExemplar := false
	for _, ex := range listing.Exemplars {
		if ex.Metric == "kamel_http_request_duration_seconds" &&
			ex.Labels["route"] == "/v1/stats" && ex.TraceID == traceID {
			foundExemplar = true
		}
	}
	if !foundExemplar {
		t.Errorf("no /v1/stats exemplar carrying trace %s in %+v", traceID, listing.Exemplars)
	}

	// Error paths: unknown id 404, malformed filters 400.
	if st := traceJSON(t, ts.URL+"/v1/traces/"+strings.Repeat("0f", 16), nil); st != http.StatusNotFound {
		t.Errorf("unknown trace id: status %d, want 404", st)
	}
	for _, bad := range []string{"?min-duration=bogus", "?status=abc", "?limit=-1"} {
		if st := traceJSON(t, ts.URL+"/v1/traces"+bad, nil); st != http.StatusBadRequest {
			t.Errorf("filter %s: status %d, want 400", bad, st)
		}
	}
}

// TestServeTraceSamplingAndTailRetention: with head sampling off, an ordinary
// request is NOT listed — but stays briefly reachable by ID through the
// recent ring (the property cross-node stitching relies on) — while a slow
// request is retained regardless of the head decision.
func TestServeTraceSamplingAndTailRetention(t *testing.T) {
	opts := defaultServeOptions()
	opts.traceSample = 0
	ts := newTestServerOpts(t, opts)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Kamel-Trace-ID")

	// Reachable by ID (recent ring) without ever being listed.
	deadline := time.Now().Add(5 * time.Second)
	for traceJSON(t, ts.URL+"/v1/traces/"+traceID, nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("unsampled trace never reached the recent ring")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var listing wireTracesResponse
	traceJSON(t, ts.URL+"/v1/traces?route=/v1/stats", &listing)
	for _, tr := range listing.Traces {
		if tr.TraceID == traceID {
			t.Error("unsampled, fast, successful request was retained")
		}
	}

	// Tail retention: same sampling-off server, but a slow threshold of 1ns
	// forces every request into the slow class.
	opts2 := defaultServeOptions()
	opts2.traceSample = 0
	opts2.traceSlow = time.Nanosecond
	ts2 := newTestServerOpts(t, opts2)
	resp2, err := http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	slowID := resp2.Header.Get("X-Kamel-Trace-ID")
	if sum := waitTraceListed(t, ts2.URL, "?route=/v1/stats", slowID); sum.Retained != obs.RetainSlow {
		t.Errorf("retained = %q, want %q", sum.Retained, obs.RetainSlow)
	}
}

// TestServeTraceIDInErrorEnvelope: a shed request (429) carries its trace ID
// in the structured error envelope, and the trace is tail-retained with
// reason "error" even with head sampling off.
func TestServeTraceIDInErrorEnvelope(t *testing.T) {
	opts := defaultServeOptions()
	opts.traceSample = 0
	opts.maxInflight = 1
	ts := newTestServerOpts(t, opts)

	// Occupy the single limiter slot with an impute whose body never arrives:
	// the handler blocks reading the pipe inside the slot.
	pr, pw := io.Pipe()
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/impute", pr)
		req.Header.Set("Content-Type", "application/json")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	release := func() {
		pw.CloseWithError(io.ErrClosedPipe)
		<-blocked
	}
	defer release()
	// The client buffers a streamed body's headers until the first chunk, so
	// send one byte: the request then reaches the server and holds the slot.
	if _, err := pw.Write([]byte("{")); err != nil {
		t.Fatal(err)
	}

	// Poll until the blocked request holds the slot and a probe is shed.
	var shedResp *http.Response
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			shedResp = resp
			break
		}
		resp.Body.Close()
		if time.Now().After(deadline) {
			t.Fatal("limiter never shed a request")
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer shedResp.Body.Close()

	var env struct {
		Error wireError `json:"error"`
	}
	if err := json.NewDecoder(shedResp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	headerID := shedResp.Header.Get("X-Kamel-Trace-ID")
	if !isHexID(env.Error.TraceID, 32) {
		t.Fatalf("429 envelope trace_id = %q, want 32 hex chars", env.Error.TraceID)
	}
	if env.Error.TraceID != headerID {
		t.Errorf("envelope trace_id %s != X-Kamel-Trace-ID %s", env.Error.TraceID, headerID)
	}
	// Free the limiter slot before polling the trace listing — those polls
	// would otherwise be shed too.
	release()
	if sum := waitTraceListed(t, ts.URL, "?status=429", env.Error.TraceID); sum.Retained != obs.RetainError {
		t.Errorf("retained = %q, want %q", sum.Retained, obs.RetainError)
	}
}

// TestServeSlowLogCarriesTraceID: the slow-request warn line names the trace,
// so a log reader can jump straight to /v1/traces/{id}.
func TestServeSlowLogCarriesTraceID(t *testing.T) {
	var logBuf syncBuffer
	opts := defaultServeOptions()
	opts.traceSample = 0
	opts.slowRequest = 1 // nanosecond: every request logs as slow
	opts.logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	ts := newTestServerOpts(t, opts)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get("X-Kamel-Trace-ID")

	logs := logBuf.String()
	if !strings.Contains(logs, `"msg":"slow request"`) {
		t.Fatalf("no slow-request warn line:\n%s", logs)
	}
	if !strings.Contains(logs, `"trace_id":"`+traceID+`"`) {
		t.Errorf("slow-request line missing trace_id %s:\n%s", traceID, logs)
	}
}

// TestServeBuildInfoMetric: the deployment-identity gauge is on /metrics.
func TestServeBuildInfoMetric(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	if !strings.Contains(out, "kamel_build_info{") {
		t.Fatalf("/metrics missing kamel_build_info:\n%s", out)
	}
	for _, want := range []string{`version="dev"`, `replicas="0"`} {
		if !strings.Contains(out, want) {
			t.Errorf("kamel_build_info missing label %s", want)
		}
	}
}

// TestClusterTraceStitchingAcceptance is the tracing plane's end-to-end
// acceptance: on a 3-node cluster with 2-way replication and head sampling
// OFF, a slow forwarded request is retrievable after the fact from the
// gateway as one stitched multi-hop span tree; its trace ID is discoverable
// from the gateway's route-latency exemplar; a replica-failover walk yields
// one trace recording both attempts.
func TestClusterTraceStitchingAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	fx := newReplicaFixture(t, 3, 2, func(o *serveOptions) {
		o.traceSample = 0
		o.traceSlow = time.Nanosecond // every request is tail-retained as slow
	})

	// Pick a trajectory whose replica group excludes some node: that node is
	// the gateway, so the impute MUST forward.
	var traj wireTraj
	var group []string
	gw := -1
	for _, tr := range fx.sparse {
		g := fx.groupOf(t, tr)
		for i := 0; i < len(fx.c.Nodes); i++ {
			if !containsShard(g, fmt.Sprintf("shard-%d", i)) {
				traj, group, gw = tr, g, i
				break
			}
		}
		if gw >= 0 {
			break
		}
	}
	if gw < 0 {
		t.Fatal("every node replicates every fixture trajectory; cannot force a forward")
	}
	gwURL := fx.c.Nodes[gw].URL()
	gwShard := fmt.Sprintf("shard-%d", gw)

	var traceID string
	t.Run("StitchedSpanTree", func(t *testing.T) {
		status, hdr, raw := clusterReq(t, http.MethodPost, gwURL+"/v1/impute", nil, traj)
		if status != http.StatusOK {
			t.Fatalf("forwarded impute: status %d: %s", status, raw)
		}
		traceID = hdr.Get("X-Kamel-Trace-ID")
		if !isHexID(traceID, 32) {
			t.Fatalf("X-Kamel-Trace-ID = %q", traceID)
		}
		if sum := waitTraceListed(t, gwURL, "?route=/v1/impute", traceID); sum.Retained != obs.RetainSlow {
			t.Errorf("retained = %q, want %q", sum.Retained, obs.RetainSlow)
		}

		// The stitched tree: gateway hop at the root, the serving replica's
		// hop parent-linked under it.  Poll: the remote hop's store write can
		// race the gateway's response by a hair.
		var doc wireTraceDoc
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st := traceJSON(t, gwURL+"/v1/traces/"+traceID, &doc); st == http.StatusOK && len(doc.Hops) >= 2 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stitched doc never reached 2 hops: %+v", doc)
			}
			time.Sleep(10 * time.Millisecond)
		}
		root := doc.Hops[0]
		if root.Node != gwShard || root.ParentSpanID != "" {
			t.Fatalf("root hop = %+v, want a parentless %s hop", root, gwShard)
		}
		foundChild := false
		for _, hop := range doc.Hops[1:] {
			if hop.ParentSpanID == root.SpanID && containsShard(group, hop.Node) {
				foundChild = true
				if hop.Route != "/v1/impute" {
					t.Errorf("remote hop route = %q", hop.Route)
				}
			}
		}
		if !foundChild {
			t.Fatalf("no remote hop parent-linked to the gateway span in %+v", doc.Hops)
		}
		spanNames := map[string]bool{}
		for _, sp := range root.Spans {
			spanNames[sp.Name] = true
		}
		if !spanNames["cluster.forward"] || !spanNames["cluster.attempt"] {
			t.Errorf("gateway hop spans = %v, want cluster.forward and cluster.attempt", spanNames)
		}

		// The trace is discoverable from the gateway's route-latency exemplar.
		foundEx := false
		fx.syss[gw].Obs().EachExemplar(func(name string, labels []obs.Label, ex obs.Exemplar) {
			if name != "kamel_http_request_duration_seconds" {
				return
			}
			for _, l := range labels {
				if l.Key == "route" && l.Value == "/v1/impute" && ex.TraceID == traceID {
					foundEx = true
				}
			}
		})
		if !foundEx {
			t.Error("gateway /v1/impute latency histogram has no exemplar for the trace")
		}
	})

	// Mutating subtest last: kill the group's first replica and check the
	// failover walk is one trace recording both attempts.
	t.Run("FailoverTraceContinuity", func(t *testing.T) {
		fx.c.Kill(shardIdx(t, group[0]))
		status, hdr, raw := clusterReq(t, http.MethodPost, gwURL+"/v1/impute", nil, traj)
		if status != http.StatusOK {
			t.Fatalf("failover impute: status %d: %s", status, raw)
		}
		failoverID := hdr.Get("X-Kamel-Trace-ID")
		waitTraceListed(t, gwURL, "?route=/v1/impute", failoverID)
		var doc wireTraceDoc
		if st := traceJSON(t, gwURL+"/v1/traces/"+failoverID, &doc); st != http.StatusOK {
			t.Fatalf("failover trace detail: status %d", st)
		}
		var attempts []wireTraceSpan
		for _, hop := range doc.Hops {
			if hop.Node != gwShard {
				continue
			}
			for _, sp := range hop.Spans {
				if sp.Name == "cluster.attempt" {
					attempts = append(attempts, sp)
				}
			}
		}
		if len(attempts) != 2 {
			t.Fatalf("gateway hop recorded %d cluster.attempt spans, want 2: %+v", len(attempts), doc.Hops)
		}
		attr := func(sp wireTraceSpan, key string) string {
			for _, a := range sp.Attrs {
				if a.Key == key {
					return a.Value
				}
			}
			return ""
		}
		if p, o := attr(attempts[0], "peer"), attr(attempts[0], "outcome"); p != group[0] || o != "retriable" {
			t.Errorf("first attempt peer=%s outcome=%s, want %s/retriable", p, o, group[0])
		}
		if p, o := attr(attempts[1], "peer"), attr(attempts[1], "outcome"); p != group[1] || o != "ok" {
			t.Errorf("second attempt peer=%s outcome=%s, want %s/ok", p, o, group[1])
		}
	})
}
