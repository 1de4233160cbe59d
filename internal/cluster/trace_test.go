package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"kamel/internal/obs"
)

// tracedCtx binds a sampled root trace (and the registry sink) to a context,
// returning both, as the serving layer's observe middleware does per request.
func tracedCtx(reg *obs.Registry) (context.Context, *obs.Trace) {
	tr := obs.NewRootTrace(true)
	ctx := obs.ContextWithRequestID(context.Background(), obs.NewRequestID())
	return obs.With(ctx, tr, reg), tr
}

// TestClusterTraceparentPropagation: a forwarded POST and an anti-entropy
// style GET both carry the caller's trace identity — trace ID preserved, the
// caller's span ID as the parent, sampling flag intact — plus the request ID.
func TestClusterTraceparentPropagation(t *testing.T) {
	type seen struct {
		traceparent, reqID string
	}
	var mu sync.Mutex
	var got []seen
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Header.Get(obs.HeaderTraceparent), r.Header.Get("X-Request-ID")})
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := tracedCtx(rt.opts.Registry)
	if _, err := rt.Forward(ctx, "shard-1", "/v1/impute", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(ctx, "shard-1", "/v1/cluster/manifest"); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	snapshot := append([]seen(nil), got...)
	mu.Unlock()
	if len(snapshot) != 2 {
		t.Fatalf("peer saw %d requests, want 2", len(snapshot))
	}
	for i, s := range snapshot {
		tc, ok := obs.ParseTraceparent(s.traceparent)
		if !ok {
			t.Fatalf("request %d: malformed traceparent %q", i, s.traceparent)
		}
		if tc.TraceID != tr.TraceID {
			t.Errorf("request %d: trace id %s, want %s", i, tc.TraceID, tr.TraceID)
		}
		if tc.SpanID != tr.SpanID {
			t.Errorf("request %d: parent span %s, want caller's %s", i, tc.SpanID, tr.SpanID)
		}
		if !tc.Sampled {
			t.Errorf("request %d: sampled flag lost", i)
		}
		if s.reqID == "" {
			t.Errorf("request %d: missing X-Request-ID", i)
		}
	}

	// An identity-less trace (the ?debug=1 recorder) must NOT propagate.
	plain := obs.With(context.Background(), obs.NewTrace(), nil)
	if _, err := rt.Forward(plain, "shard-1", "/v1/impute", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := got[len(got)-1]
	mu.Unlock()
	if last.traceparent != "" {
		t.Errorf("identity-less trace leaked a traceparent: %q", last.traceparent)
	}
}

// TestClusterFailoverTraceContinuity: a ForwardAny walk that fails over must
// yield ONE trace whose spans record every attempt — the attempted peer and
// its busy/retriable classification as span attributes (the satellite
// acceptance for replica-failover trace continuity).
func TestClusterFailoverTraceContinuity(t *testing.T) {
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"overloaded","message":"shed"}}`, http.StatusTooManyRequests)
	}))
	defer busy.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ok.Close()

	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: busy.URL},
		Shard{ID: "shard-2", Addr: ok.URL})
	rt, err := New(m, Options{Self: "shard-0", RetryBackoff: time.Millisecond, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := tracedCtx(rt.opts.Registry)
	res, servedBy, err := rt.ForwardAny(ctx, []string{"shard-0", "shard-1", "shard-2"}, "/v1/impute", []byte(`{}`))
	if err != nil {
		t.Fatalf("failover walk: %v", err)
	}
	if servedBy != "shard-2" || res.Status != http.StatusOK {
		t.Fatalf("served by %s status %d, want shard-2 / 200", servedBy, res.Status)
	}

	var attempts []obs.SpanRecord
	for _, sp := range tr.Records() {
		if sp.Name == "cluster.attempt" {
			attempts = append(attempts, sp)
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("trace recorded %d cluster.attempt spans, want 2 (busy peer + failover)", len(attempts))
	}
	attr := func(sp obs.SpanRecord, key string) string {
		for _, a := range sp.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	if p, o := attr(attempts[0], "peer"), attr(attempts[0], "outcome"); p != "shard-1" || o != "busy" {
		t.Errorf("first attempt peer=%s outcome=%s, want shard-1/busy", p, o)
	}
	if p, o := attr(attempts[1], "peer"), attr(attempts[1], "outcome"); p != "shard-2" || o != "ok" {
		t.Errorf("second attempt peer=%s outcome=%s, want shard-2/ok", p, o)
	}

	// A dead peer classifies as retriable.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()
	m2 := testMap(2,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: dead.URL},
		Shard{ID: "shard-2", Addr: ok.URL})
	if err := rt.Reload(m2); err != nil {
		t.Fatal(err)
	}
	ctx2, tr2 := tracedCtx(rt.opts.Registry)
	if _, servedBy, err = rt.ForwardAny(ctx2, []string{"shard-1", "shard-2"}, "/v1/impute", []byte(`{}`)); err != nil || servedBy != "shard-2" {
		t.Fatalf("walk past dead peer: served by %s, err %v", servedBy, err)
	}
	var outcomes []string
	for _, sp := range tr2.Records() {
		if sp.Name == "cluster.attempt" {
			for _, a := range sp.Attrs {
				if a.Key == "outcome" {
					outcomes = append(outcomes, a.Value)
				}
			}
		}
	}
	if len(outcomes) != 2 || outcomes[0] != "retriable" || outcomes[1] != "ok" {
		t.Fatalf("outcomes = %v, want [retriable ok]", outcomes)
	}
}

// TestClusterAntiEntropyTraced: SweepOnce's background GETs are attributable
// — they carry a sync- request ID and a valid traceparent even though no
// request context flowed in.
func TestClusterAntiEntropyTraced(t *testing.T) {
	var mu sync.Mutex
	var reqIDs, traceparents []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqIDs = append(reqIDs, r.Header.Get("X-Request-ID"))
		traceparents = append(traceparents, r.Header.Get(obs.HeaderTraceparent))
		mu.Unlock()
		http.NotFound(w, r) // no manifest; the sweep just moves on
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	store := &fakeReplicaStore{ok: true, doc: ManifestDoc{Shard: "shard-0"}}
	sy := NewSyncer(rt, store, SyncerOptions{Logger: testLogger()})
	sy.SweepOnce(context.Background())

	mu.Lock()
	defer mu.Unlock()
	if len(reqIDs) == 0 {
		t.Fatal("peer saw no anti-entropy requests")
	}
	for i := range reqIDs {
		if len(reqIDs[i]) < 5 || reqIDs[i][:5] != "sync-" {
			t.Errorf("request %d: id %q, want sync- prefix", i, reqIDs[i])
		}
		if _, ok := obs.ParseTraceparent(traceparents[i]); !ok {
			t.Errorf("request %d: malformed traceparent %q", i, traceparents[i])
		}
	}
}
