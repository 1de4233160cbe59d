package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kamel/internal/batcher"
	"kamel/internal/obs"
)

// newAdmissionServer stands up the admitLoad middleware alone over a
// controllable inner handler, the same direct-construction pattern the fixed
// shedder's fault test uses, so overload behaviour is driven without training
// models.
func newAdmissionServer(t *testing.T, opts batcher.AdmissionOptions, inner http.Handler) (*httptest.Server, *apiServer) {
	t.Helper()
	reg := obs.NewRegistry()
	if opts.Registry == nil {
		opts.Registry = reg
	}
	s := &apiServer{
		admission: batcher.NewAdmission(opts),
		shed:      reg.Counter("kamel_http_shed_total", ""),
	}
	ts := httptest.NewServer(s.admitLoad(inner))
	t.Cleanup(ts.Close)
	return ts, s
}

// get issues one GET with optional client/priority admission headers.
func admitGet(t *testing.T, url, client, priority string) (int, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set(obs.HeaderClient, client)
	}
	if priority != "" {
		req.Header.Set(obs.HeaderPriority, priority)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// TestServeAdmissionOverloadGoodput floods an adaptive server far past
// saturation and asserts the overload contract: goodput does not collapse
// (the limiter keeps serving at capacity), every refusal is an immediate 429
// with a valid Retry-After, and the whole burst resolves quickly because
// excess load is shed, never queued.  Run with -race in CI.
func TestServeAdmissionOverloadGoodput(t *testing.T) {
	const limit, burst = 8, 320

	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond) // a fast but non-zero service time
		writeJSON(w, map[string]string{"status": "done"})
	})
	ts, s := newAdmissionServer(t, batcher.AdmissionOptions{MaxLimit: limit}, inner)

	start := time.Now()
	var wg sync.WaitGroup
	var ok, shed, other int64
	var mu sync.Mutex
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, hdr := admitGet(t, ts.URL+"/v1/impute", fmt.Sprintf("c%d", i%4), "")
			mu.Lock()
			defer mu.Unlock()
			switch st {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra < 1 {
					t.Errorf("429 Retry-After = %q, want integer >= 1", hdr.Get("Retry-After"))
				}
			default:
				other++
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if other != 0 {
		t.Fatalf("%d responses were neither 200 nor 429", other)
	}
	if ok < limit {
		t.Fatalf("goodput collapsed: %d successes out of %d, want at least the limit %d", ok, burst, limit)
	}
	if shed == 0 {
		t.Fatalf("a %dx overload burst shed nothing (ok=%d)", burst/limit, ok)
	}
	// Shed-not-queue: the burst must resolve in bounded time, nowhere near
	// the serialized burst*serviceTime worst case.
	if elapsed > 10*time.Second {
		t.Fatalf("burst took %v; shed requests appear to have queued", elapsed)
	}
	st := s.admission.Stats()
	if st.Admitted != ok {
		t.Errorf("controller admitted = %d, HTTP successes = %d", st.Admitted, ok)
	}
	if st.ShedLimit+st.ShedQuota+st.ShedBulk != shed {
		t.Errorf("controller sheds = %d, HTTP 429s = %d",
			st.ShedLimit+st.ShedQuota+st.ShedBulk, shed)
	}
	if got := s.shed.Value(); got != shed {
		t.Errorf("shed counter = %d, want %d", got, shed)
	}
}

// TestServeAdmissionQuotaIsolation holds slots for a flooding client and
// checks a second client still admits: the fair-share quota bounds the
// flooder below the global limit.
func TestServeAdmissionQuotaIsolation(t *testing.T) {
	const limit = 8

	release := make(chan struct{})
	started := make(chan struct{}, limit)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" { // fast path: registers a client, no blocking
			writeJSON(w, map[string]string{"status": "ok"})
			return
		}
		started <- struct{}{}
		<-release
		writeJSON(w, map[string]string{"status": "done"})
	})
	ts, _ := newAdmissionServer(t, batcher.AdmissionOptions{
		MaxLimit:   limit,
		QuotaBurst: 1, // fair share with 2 active clients: ceil(8/2) = 4
	}, inner)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()

	// The innocent touches first (an admitted fast request) so the fair-share
	// divisor is 2 by the time the flood asks for slots.
	if st, _ := admitGet(t, ts.URL+"/v1/stats", "good", ""); st != http.StatusOK {
		t.Fatalf("registration request status %d", st)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			admitGet(t, ts.URL+"/v1/impute", "flood", "")
		}()
	}
	for i := 0; i < 4; i++ {
		<-started
	}
	// The flooder, at its 4-slot fair share, is now refused with reason
	// quota...
	if st, hdr := admitGet(t, ts.URL+"/v1/impute", "flood", ""); st != http.StatusTooManyRequests {
		t.Fatalf("flooding client's 5th slot: status %d, want 429", st)
	} else if hdr.Get("Retry-After") == "" {
		t.Fatal("quota shed missing Retry-After")
	}
	// ...while the innocent client finds free slots behind the flood.
	done := make(chan int, 1)
	go func() {
		st, _ := admitGet(t, ts.URL+"/v1/impute", "good", "")
		done <- st
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("innocent client never admitted behind the flood")
	}
	unblock()
	wg.Wait()
	if st := <-done; st != http.StatusOK {
		t.Fatalf("innocent client status %d, want 200", st)
	}
}

// TestServeAdmissionBulkHeadroom fills the bulk slice of an adaptive limiter
// and checks bulk is refused while interactive still admits, keyed off the
// X-Kamel-Priority header and the path default.
func TestServeAdmissionBulkHeadroom(t *testing.T) {
	const limit = 8 // bulk headroom 0.75: bulk sheds at 6 in flight

	release := make(chan struct{})
	started := make(chan struct{}, limit)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		writeJSON(w, map[string]string{"status": "done"})
	})
	ts, _ := newAdmissionServer(t, batcher.AdmissionOptions{
		MaxLimit:   limit,
		QuotaBurst: float64(limit), // quotas wide open; this test is about headroom
	}, inner)
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The batch path defaults to bulk without any header.
			st, _ := admitGet(t, ts.URL+"/v1/impute/batch", fmt.Sprintf("b%d", i), "")
			if st != http.StatusOK {
				t.Errorf("bulk holder %d: status %d", i, st)
			}
		}(i)
	}
	for i := 0; i < 6; i++ {
		<-started
	}
	if st, _ := admitGet(t, ts.URL+"/v1/impute", "b7", "bulk"); st != http.StatusTooManyRequests {
		t.Fatalf("bulk beyond headroom: status %d, want 429", st)
	}
	stInteractive := make(chan int, 1)
	go func() {
		st, _ := admitGet(t, ts.URL+"/v1/impute", "user", "")
		stInteractive <- st
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("interactive request never admitted into the reserved headroom")
	}
	unblock()
	wg.Wait()
	if st := <-stInteractive; st != http.StatusOK {
		t.Fatalf("interactive in reserved headroom: status %d, want 200", st)
	}
}

// TestServeAdmissionSurfaces checks the full handler exposes controller state
// everywhere operators read it: the admission block in /v1/stats and the
// kamel_admission_* series in /metrics — and that -max-inflight 0 (admission
// control off) drops the block.
func TestServeAdmissionSurfaces(t *testing.T) {
	ts := newTestServer(t)

	status, _, body := call(t, http.MethodGet, ts.URL+"/v1/stats", "", "")
	if status != http.StatusOK {
		t.Fatalf("/v1/stats status %d", status)
	}
	adm, ok := body["admission"].(map[string]interface{})
	if !ok {
		t.Fatalf("/v1/stats missing admission block: %v", body)
	}
	if lim, _ := adm["limit"].(float64); lim != float64(defaultServeOptions().maxInflight) {
		t.Errorf("admission limit = %v, want the max-inflight default %d",
			adm["limit"], defaultServeOptions().maxInflight)
	}
	for _, key := range []string{"target_ms", "queue_delay_ms", "active_clients", "shed_quota"} {
		if _, ok := adm[key]; !ok {
			t.Errorf("admission block missing %q: %v", key, adm)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, series := range []string{"kamel_admission_limit", "kamel_admission_queue_delay_seconds", "kamel_admission_active_clients"} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	off := defaultServeOptions()
	off.maxInflight = 0
	tsOff := newTestServerOpts(t, off)
	_, _, body = call(t, http.MethodGet, tsOff.URL+"/v1/stats", "", "")
	if _, ok := body["admission"]; ok {
		t.Error("-max-inflight 0 must not report an admission block")
	}
}
