package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kamel/internal/trajgen"
)

func buildTestWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := BuildWorkload([]trajgen.Profile{trajgen.PortoLike(0.1)}, WorkloadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildWorkloadPools(t *testing.T) {
	w := buildTestWorkload(t)
	impute, batch, train, cells := w.Sizes()
	if impute == 0 || batch == 0 || train == 0 {
		t.Fatalf("empty pools: impute=%d batch=%d train=%d", impute, batch, train)
	}
	if cells < 2 {
		t.Fatalf("hotspot grouping produced %d cells, want at least 2 for Zipf skew", cells)
	}
	// Groups are ordered most to least populous, and partition the pool.
	total := 0
	for i := 1; i < len(w.groups); i++ {
		if len(w.groups[i]) > len(w.groups[i-1]) {
			t.Fatalf("groups not sorted by popularity at %d", i)
		}
	}
	for _, g := range w.groups {
		total += len(g)
	}
	if total != impute {
		t.Fatalf("groups cover %d of %d impute bodies", total, impute)
	}
	if len(w.TrainBodies()) != 1 {
		t.Fatalf("want 1 seed train body per profile, got %d", len(w.TrainBodies()))
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(sorted, 0.99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
}

func TestRecorderClassification(t *testing.T) {
	rec := &recorder{slowCap: 2}
	rec.record(OpImpute, 200, 10*time.Millisecond, "t1", false)
	rec.record(OpImpute, 429, time.Millisecond, "t2", false)
	rec.record(OpImpute, 500, time.Millisecond, "t3", false)
	rec.record(OpImpute, 503, time.Millisecond, "", false)
	rec.record(OpImpute, 0, time.Second, "", true)
	st := rec.result(100, time.Second)
	if st.OK != 1 || st.Shed != 1 || st.Errors != 2 || st.Internal != 1 || st.Timeout != 1 {
		t.Fatalf("classification: %+v", st)
	}
	if st.Sent != 5 {
		t.Fatalf("sent = %d, want 5", st.Sent)
	}
	if st.GoodputRPS != 1 {
		t.Fatalf("goodput = %v, want 1/s", st.GoodputRPS)
	}
	// The slowest list is capped and sorted descending, skipping transport
	// failures (no trace to follow).
	if len(st.Slowest) != 2 || st.Slowest[0].TraceID != "t1" {
		t.Fatalf("slowest = %+v", st.Slowest)
	}
}

// TestOpenLoopArrivals is the open-loop property itself: a deliberately slow
// server must NOT slow the generator down.  At 200 req/s for 600ms against a
// handler sleeping 100ms, a closed-loop pool would self-throttle to a
// handful of requests; the open loop must still fire on schedule.
func TestOpenLoopArrivals(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		time.Sleep(100 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	w := buildTestWorkload(t)
	g := New(w, Options{BaseURL: ts.URL, Seed: 7, ZipfS: 1.2, Clients: 4})
	st := g.RunStep(context.Background(), 200, 0, 600*time.Millisecond)

	// 200/s * 0.6s = 120 expected arrivals; allow wide scheduling slack but
	// reject anything compatible with closed-loop throttling (~6 requests
	// at concurrency 1, ~24 at 4).
	if st.Sent < 60 {
		t.Fatalf("open loop sent only %d requests at 200/s over 600ms; generator is closing the loop", st.Sent)
	}
	if st.OK != st.Sent {
		t.Fatalf("ok=%d sent=%d; stub accepts everything", st.OK, st.Sent)
	}
	if st.P50MS < 90 {
		t.Fatalf("p50 = %.1fms, want >= the 100ms service floor", st.P50MS)
	}
}

// TestIssueTimesFromDueTime pins the coordinated-omission fix: a request the
// generator fires late must carry its scheduling lag in the recorded latency,
// however fast the server answers.
func TestIssueTimesFromDueTime(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	g := New(&Workload{}, Options{BaseURL: ts.URL})
	rec := &recorder{}
	sh := shot{op: OpImpute, path: "/v1/impute", body: []byte("{}"), client: "client-0", pri: "interactive"}
	g.issue(context.Background(), sh, time.Now().Add(-50*time.Millisecond), rec)
	st := rec.result(1, time.Second)
	if st.OK != 1 {
		t.Fatalf("stub accepts everything, got %+v", st)
	}
	if st.P50MS < 50 {
		t.Fatalf("latency = %.1fms for a request due 50ms before it was sent; scheduling lag was dropped", st.P50MS)
	}
}

// TestSweepCapacityPoint checks the selection Sweep applies: the best goodput
// among steps with p99 under target and no internal errors.
func TestSweepCapacityPoint(t *testing.T) {
	allShed := StepResult{OfferedRPS: 800, Sent: 400, Shed: 400, ShedRate: 1} // nothing succeeded: p99 0, goodput 0
	steps := []StepResult{
		{OfferedRPS: 50, GoodputRPS: 49, P99MS: 20},
		{OfferedRPS: 100, GoodputRPS: 97, P99MS: 80},
		{OfferedRPS: 200, GoodputRPS: 150, P99MS: 300},             // out of SLO
		{OfferedRPS: 400, GoodputRPS: 180, P99MS: 50, Internal: 3}, // internal errors
		allShed,
	}
	if goodput, offered := capacityPoint(steps, 100); goodput != 97 || offered != 100 {
		t.Fatalf("capacity = %.1f at %.1f, want 97 at 100", goodput, offered)
	}
	if goodput, offered := capacityPoint([]StepResult{allShed}, 100); goodput != 0 || offered != 0 {
		t.Fatalf("an all-shed step was chosen as the capacity point: %.1f at %.1f", goodput, offered)
	}
}

// TestSweepAgainstStub runs a tiny two-step sweep end to end, checking trace
// IDs surface from the response header and the table renders.
func TestSweepAgainstStub(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Kamel-Trace-ID", "deadbeef")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	w := buildTestWorkload(t)
	g := New(w, Options{BaseURL: ts.URL, Seed: 3, SlowTraces: 2})
	res := g.Sweep(context.Background(), []float64{50, 100}, 50*time.Millisecond, 250*time.Millisecond, 1000)
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d, want 2", len(res.Steps))
	}
	if res.CapacityRPS <= 0 {
		t.Fatalf("no capacity point found: %+v", res.Steps)
	}
	found := false
	for _, st := range res.Steps {
		for _, s := range st.Slowest {
			if s.TraceID == "deadbeef" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("slowest requests carry no trace IDs from X-Kamel-Trace-ID")
	}
	var sb mockWriter
	WriteTable(&sb, res)
	if len(sb.b) == 0 {
		t.Fatal("table rendered empty")
	}
}

type mockWriter struct{ b []byte }

func (m *mockWriter) Write(p []byte) (int, error) { m.b = append(m.b, p...); return len(p), nil }
