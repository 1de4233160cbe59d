package obs

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundtrip(t *testing.T) {
	for _, sampled := range []bool{true, false} {
		root := NewRootTrace(sampled)
		tc, ok := root.Context()
		if !ok {
			t.Fatal("root trace refused to yield a context")
		}
		parsed, ok := ParseTraceparent(FormatTraceparent(tc))
		if !ok {
			t.Fatalf("roundtrip of %q failed to parse", FormatTraceparent(tc))
		}
		if parsed != tc {
			t.Fatalf("roundtrip: got %+v, want %+v", parsed, tc)
		}
		child := NewChildTrace(parsed)
		if child.TraceID != root.TraceID {
			t.Errorf("child trace id %s, want inherited %s", child.TraceID, root.TraceID)
		}
		if child.ParentSpanID != root.SpanID {
			t.Errorf("child parent span %s, want upstream's %s", child.ParentSpanID, root.SpanID)
		}
		if child.SpanID == root.SpanID || child.SpanID == "" {
			t.Errorf("child span id %q must be fresh", child.SpanID)
		}
		if child.Sampled != sampled {
			t.Errorf("child sampled %v, want inherited %v", child.Sampled, sampled)
		}
	}

	// Identity-less traces must refuse to propagate.
	if _, ok := NewTrace().Context(); ok {
		t.Error("identity-less trace yielded a propagatable context")
	}
	var nilTrace *Trace
	if _, ok := nilTrace.Context(); ok {
		t.Error("nil trace yielded a propagatable context")
	}
}

func TestTraceparentMalformed(t *testing.T) {
	valid := FormatTraceparent(TraceContext{
		TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), Sampled: true})
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("control value %q rejected", valid)
	}
	bad := []string{
		"",
		"00",
		"00-" + strings.Repeat("ab", 16), // missing fields
		"00-" + strings.Repeat("ab", 15) + "-" + strings.Repeat("cd", 8) + "-01",      // short trace id
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 7) + "-01",      // short span id
		"00-" + strings.Repeat("AB", 16) + "-" + strings.Repeat("cd", 8) + "-01",      // uppercase hex
		"00-" + strings.Repeat("zz", 16) + "-" + strings.Repeat("cd", 8) + "-01",      // non-hex
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("cd", 8) + "-01",       // all-zero trace id
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("0", 16) + "-01",      // all-zero span id
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01-junk", // extra field
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("malformed %q accepted", v)
		}
	}
}

func TestSpanAttrsRecorded(t *testing.T) {
	tr := NewRootTrace(true)
	ctx := With(context.Background(), tr, nil)
	sp := StartSpan(ctx, "cluster.attempt")
	sp.SetAttr("peer", "shard-1")
	sp.SetAttr("outcome", "busy")
	sp.End()

	recs := tr.Records()
	if len(recs) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(recs))
	}
	want := []Attr{{Key: "peer", Value: "shard-1"}, {Key: "outcome", Value: "busy"}}
	if len(recs[0].Attrs) != len(want) {
		t.Fatalf("attrs %v, want %v", recs[0].Attrs, want)
	}
	for i := range want {
		if recs[0].Attrs[i] != want[i] {
			t.Errorf("attr %d = %+v, want %+v", i, recs[0].Attrs[i], want[i])
		}
	}

	// SetAttr on an unbound (no-op) span must not panic.
	noop := StartSpan(context.Background(), "x")
	noop.SetAttr("k", "v")
	noop.End()
}

func TestTraceStoreRetentionAndFind(t *testing.T) {
	reg := NewRegistry()
	s := NewTraceStore(3, 2, reg)

	rec := func(id, span, reason string, status int, d time.Duration) TraceRecord {
		return TraceRecord{TraceID: id, SpanID: span, Node: "n0", Route: "/v1/impute",
			Status: status, Duration: d, Retained: reason}
	}
	s.Add(rec("t1", "s1", RetainHead, 200, 5*time.Millisecond))
	s.Add(rec("t2", "s2", RetainError, 500, 1*time.Millisecond))
	s.Add(rec("t3", "s3", "", 200, 1*time.Millisecond)) // recent-only hop
	s.Add(rec("t4", "s4", RetainSlow, 200, 900*time.Millisecond))

	// List surfaces only retained traces, newest-first.
	got := s.List(TraceFilter{})
	if len(got) != 3 || got[0].TraceID != "t4" || got[2].TraceID != "t1" {
		t.Fatalf("list = %v", ids(got))
	}
	// Filters: status, min-duration, limit.
	if got = s.List(TraceFilter{Status: 500}); len(got) != 1 || got[0].TraceID != "t2" {
		t.Errorf("status filter = %v", ids(got))
	}
	if got = s.List(TraceFilter{MinDuration: 100 * time.Millisecond}); len(got) != 1 || got[0].TraceID != "t4" {
		t.Errorf("min-duration filter = %v", ids(got))
	}
	if got = s.List(TraceFilter{Limit: 2}); len(got) != 2 {
		t.Errorf("limit filter returned %d", len(got))
	}
	if got = s.List(TraceFilter{Route: "/other"}); len(got) != 0 {
		t.Errorf("route filter = %v", ids(got))
	}

	// A recent-only record is invisible to List but reachable by Find — the
	// property cross-node stitching depends on.
	if found := s.Find("t3"); len(found) != 1 || found[0].SpanID != "s3" {
		t.Errorf("recent-only find = %v", found)
	}
	// A record in both rings dedups by span ID.
	if found := s.Find("t4"); len(found) != 1 {
		t.Errorf("find t4 returned %d records, want 1 (deduped)", len(found))
	}

	// Ring overwrite: a fourth retained trace evicts the oldest of cap 3.
	s.Add(rec("t5", "s5", RetainHead, 200, time.Millisecond))
	if got = s.List(TraceFilter{}); len(got) != 3 || got[0].TraceID != "t5" {
		t.Errorf("after overwrite list = %v", ids(got))
	}
	for _, r := range got {
		if r.TraceID == "t1" {
			t.Error("oldest retained trace survived past ring capacity")
		}
	}

	// Counters: 5 added, 4 retained (head twice, error once, slow once).
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kamel_traces_total 5",
		`kamel_traces_retained_total{reason="head"} 2`,
		`kamel_traces_retained_total{reason="error"} 1`,
		`kamel_traces_retained_total{reason="slow"} 1`,
		"kamel_trace_store_retained 3",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Nil-safety and identity-less records.
	var nilStore *TraceStore
	nilStore.Add(rec("x", "y", RetainHead, 200, 0))
	if nilStore.Find("x") != nil || nilStore.List(TraceFilter{}) != nil {
		t.Error("nil store not inert")
	}
	s.Add(TraceRecord{SpanID: "anon"}) // no trace ID: dropped
	if found := s.Find(""); found != nil {
		t.Error("empty trace id matched records")
	}
}

func ids(recs []TraceRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.TraceID
	}
	return out
}

func TestHistogramExemplars(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("kamel_test_latency_seconds", "Test latency.", nil, L("route", "/v1/impute"))
	h.ObserveExemplar(0.0003, "aaaa0000aaaa0000aaaa0000aaaa0000")
	h.ObserveExemplar(0.2, "bbbb0000bbbb0000bbbb0000bbbb0000")
	h.ObserveExemplar(0.25, "") // no trace: plain observation, no exemplar

	exs := h.Exemplars()
	if len(exs) != 2 {
		t.Fatalf("%d exemplars, want 2", len(exs))
	}

	// EachExemplar walks the registry's histograms.
	found := map[string]bool{}
	reg.EachExemplar(func(name string, labels []Label, ex Exemplar) {
		if name == "kamel_test_latency_seconds" {
			found[ex.TraceID] = true
		}
	})
	if !found["aaaa0000aaaa0000aaaa0000aaaa0000"] || !found["bbbb0000bbbb0000bbbb0000bbbb0000"] {
		t.Errorf("EachExemplar missed exemplars: %v", found)
	}

	// Exemplars surface as comment lines next to their bucket series.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# exemplar kamel_test_latency_seconds_bucket") ||
		!strings.Contains(b.String(), "trace_id=aaaa0000aaaa0000aaaa0000aaaa0000") {
		t.Errorf("exposition missing exemplar comments:\n%s", b.String())
	}

	// A same-bucket observation replaces the previous exemplar (always-fresh).
	h.ObserveExemplar(0.0003, "cccc0000cccc0000cccc0000cccc0000")
	found = map[string]bool{}
	for _, ex := range h.Exemplars() {
		found[ex.TraceID] = true
	}
	if found["aaaa0000aaaa0000aaaa0000aaaa0000"] || !found["cccc0000cccc0000cccc0000cccc0000"] {
		t.Errorf("exemplar replacement: %v", found)
	}
}

func TestObserveSpanExemplarThroughContext(t *testing.T) {
	reg := NewRegistry()
	tr := NewRootTrace(true)
	ctx := With(context.Background(), tr, reg)
	sp := StartSpan(ctx, "impute.predict")
	sp.End()
	var got []Exemplar
	reg.EachExemplar(func(name string, labels []Label, ex Exemplar) {
		if name == "kamel_stage_duration_seconds" {
			got = append(got, ex)
		}
	})
	if len(got) != 1 || got[0].TraceID != tr.TraceID {
		t.Fatalf("stage exemplar = %+v, want one with trace %s", got, tr.TraceID)
	}

	// An identity-less trace must NOT leave an exemplar (the bench hot path).
	reg2 := NewRegistry()
	ctx2 := With(context.Background(), NewTrace(), reg2)
	sp2 := StartSpan(ctx2, "impute.predict")
	sp2.End()
	count := 0
	reg2.EachExemplar(func(string, []Label, Exemplar) { count++ })
	if count != 0 {
		t.Errorf("identity-less span left %d exemplars", count)
	}
}

func TestSLOMonitorBurnAndTrigger(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	m := NewSLOMonitor(SLOConfig{
		Window:       10 * time.Second,
		ErrorBudget:  0.01,
		Sustain:      3,
		MinRequests:  10,
		ProfileDir:   dir,
		ProfileEvery: time.Minute,
	}, reg, nil)

	clock := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return clock }
	var captured []string
	m.profile = func(path string) error {
		captured = append(captured, path)
		return nil
	}

	// Below the MinRequests floor, burn reads zero however bad the ratio.
	for i := 0; i < 5; i++ {
		m.Observe(500, time.Millisecond)
	}
	if eb, _, fired := m.EvalOnce(); eb != 0 || fired {
		t.Fatalf("below floor: errBurn=%v fired=%v, want 0/false", eb, fired)
	}

	// 50 requests, 5 errors → 10% error rate over a 1% budget: burn 10x.
	for i := 0; i < 45; i++ {
		m.Observe(200, time.Millisecond)
	}
	eb, _, fired := m.EvalOnce()
	if eb < 9.9 || eb > 10.1 {
		t.Fatalf("errBurn = %v, want ~10", eb)
	}
	if fired {
		t.Fatal("fired on first burning eval; sustain not honored")
	}
	if _, _, fired = m.EvalOnce(); fired {
		t.Fatal("fired on second burning eval; sustain not honored")
	}
	// Third consecutive burning eval fires.
	if _, _, fired = m.EvalOnce(); !fired {
		t.Fatal("did not fire after Sustain burning evals")
	}
	waitSLOIdle(t, m)
	if len(captured) != 1 {
		t.Fatalf("captured %d profiles, want 1", len(captured))
	}

	// Still burning, but inside the rate-limit window: no second capture.
	if _, _, fired = m.EvalOnce(); fired {
		t.Fatal("fired inside the ProfileEvery rate-limit window")
	}
	// Past the rate limit with burn still sustained (the streak carried
	// through the limited window), the very next burning eval fires again.
	clock = clock.Add(2 * time.Minute)
	for i := 0; i < 20; i++ {
		m.Observe(503, time.Millisecond)
	}
	if _, _, fired = m.EvalOnce(); !fired {
		t.Fatal("did not re-fire after the rate-limit window passed")
	}
	waitSLOIdle(t, m)
	if len(captured) != 2 {
		t.Fatalf("captured %d profiles, want 2", len(captured))
	}

	// Burn gauges are on the registry.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kamel_slo_error_burn_rate",
		"kamel_slo_latency_burn_rate",
		"kamel_slo_profile_captures_total 2",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A healthy eval resets the streak.
	clock = clock.Add(time.Hour)
	for i := 0; i < 20; i++ {
		m.Observe(200, time.Millisecond)
	}
	if eb, _, fired := m.EvalOnce(); eb != 0 || fired {
		t.Errorf("healthy window: errBurn=%v fired=%v", eb, fired)
	}
}

// waitSLOIdle waits for the async capture goroutine to finish.
func waitSLOIdle(t *testing.T, m *SLOMonitor) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		m.mu.Lock()
		busy := m.capturing
		m.mu.Unlock()
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("capture goroutine never finished")
}

func TestSLOLatencyBurn(t *testing.T) {
	m := NewSLOMonitor(SLOConfig{
		Window:        10 * time.Second,
		LatencyTarget: 100 * time.Millisecond,
		LatencyBudget: 0.05,
		MinRequests:   10,
	}, nil, nil)
	clock := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return clock }
	for i := 0; i < 18; i++ {
		m.Observe(200, time.Millisecond)
	}
	m.Observe(200, 150*time.Millisecond)
	m.Observe(200, 2*time.Second)
	// 2/20 slow = 10% over a 5% budget: burn 2x; errors stay quiet.
	eb, lb, _ := m.EvalOnce()
	if eb != 0 {
		t.Errorf("errBurn = %v, want 0", eb)
	}
	if lb < 1.9 || lb > 2.1 {
		t.Errorf("latBurn = %v, want ~2", lb)
	}
}

func TestSLOPruneBoundsProfiles(t *testing.T) {
	dir := t.TempDir()
	m := NewSLOMonitor(SLOConfig{ProfileDir: dir, MaxProfiles: 3}, nil, nil)
	clock := time.Unix(1_700_000_000, 0)
	m.now = func() time.Time { return clock }
	m.profile = func(path string) error {
		return writeFile(path)
	}
	for i := 0; i < 6; i++ {
		m.runCapture(fmt.Sprintf("%s/cpu-2026010%dT000000.000.pprof", dir, i))
	}
	left := profileNames(t, dir)
	if len(left) != 3 {
		t.Fatalf("%d profiles on disk, want 3: %v", len(left), left)
	}
	for _, name := range left {
		if name < "cpu-20260103" {
			t.Errorf("old profile %s survived pruning", name)
		}
	}
}

func writeFile(path string) error {
	return os.WriteFile(path, []byte("profile"), 0o644)
}

func profileNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}
