package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"kamel/internal/batcher"
	"kamel/internal/obs"
)

// TestServeHealthProbes: liveness always answers; readiness answers 503 until
// the system has trained or loaded models (the end-to-end test covers the
// post-training flip to 200).
func TestServeHealthProbes(t *testing.T) {
	ts := newTestServer(t)

	status, _, body := call(t, http.MethodGet, ts.URL+"/healthz", "", "")
	if status != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: status %d body %v", status, body)
	}
	status, _, body = call(t, http.MethodGet, ts.URL+"/readyz", "", "")
	wantErrorCode(t, status, body, http.StatusServiceUnavailable, codeNotTrained)
}

// TestFaultServePanicRecovery: a panicking handler must not kill the server —
// the middleware converts it into a structured 500 and counts it.
func TestFaultServePanicRecovery(t *testing.T) {
	s := &apiServer{panics: obs.NewRegistry().Counter("kamel_http_panics_total", "")}
	h := s.recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("imputation exploded")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		status, _, body := call(t, http.MethodGet, ts.URL+"/v1/stats", "", "")
		wantErrorCode(t, status, body, http.StatusInternalServerError, codeInternal)
	}
	if got := s.panics.Value(); got != 3 {
		t.Errorf("panics recovered = %d, want 3", got)
	}
}

// TestFaultServeLoadShed drives a 64-client burst against a 4-slot admission
// limit: the four in-flight requests complete, every excess request is shed
// with 429 + Retry-After, and health probes keep answering throughout.
func TestFaultServeLoadShed(t *testing.T) {
	const slots, burst = 4, 64

	release := make(chan struct{})
	started := make(chan struct{}, slots)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isProbe(r.URL.Path) {
			writeJSON(w, map[string]string{"status": "ok"})
			return
		}
		started <- struct{}{}
		<-release
		writeJSON(w, map[string]string{"status": "done"})
	})
	s := &apiServer{
		admission: batcher.NewAdmission(batcher.AdmissionOptions{MaxLimit: slots}),
		shed:      obs.NewRegistry().Counter("kamel_http_shed_total", ""),
	}
	ts := httptest.NewServer(s.admitLoad(inner))
	defer ts.Close()

	// Fill every limiter slot with a blocked request.
	var wg sync.WaitGroup
	holderStatus := make([]int, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, _ := call(t, http.MethodGet, ts.URL+"/v1/impute", "", "")
			holderStatus[i] = st
		}(i)
	}
	for i := 0; i < slots; i++ {
		<-started
	}

	// The rest of the burst must be shed immediately, not queued.
	sheddedStatus := make([]int, burst-slots)
	retryAfter := make([]string, burst-slots)
	var shedWG sync.WaitGroup
	for i := 0; i < burst-slots; i++ {
		shedWG.Add(1)
		go func(i int) {
			defer shedWG.Done()
			st, hdr, _ := call(t, http.MethodGet, ts.URL+"/v1/impute", "", "")
			sheddedStatus[i] = st
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	shedWG.Wait()
	for i, st := range sheddedStatus {
		if st != http.StatusTooManyRequests {
			t.Fatalf("burst request %d: status %d, want 429", i, st)
		}
		if retryAfter[i] == "" {
			t.Fatalf("burst request %d: missing Retry-After header", i)
		}
	}
	if got := s.shed.Value(); got != burst-slots {
		t.Errorf("shed counter = %d, want %d", got, burst-slots)
	}

	// Probes bypass the limiter even at capacity.
	if st, _, _ := call(t, http.MethodGet, ts.URL+"/healthz", "", ""); st != http.StatusOK {
		t.Errorf("healthz under overload: status %d", st)
	}

	// Releasing the gate lets the in-flight holders finish normally.
	close(release)
	wg.Wait()
	for i, st := range holderStatus {
		if st != http.StatusOK {
			t.Errorf("holder %d: status %d, want 200", i, st)
		}
	}

	// Freed slots accept new work again.
	if st, _, _ := call(t, http.MethodGet, ts.URL+"/v1/impute", "", ""); st != http.StatusOK {
		t.Errorf("post-burst request: status %d, want 200", st)
	}
}

// TestFaultServeBodyLimit: oversized request bodies are rejected with a
// structured 413, not a connection reset or an unbounded read.
func TestFaultServeBodyLimit(t *testing.T) {
	opts := defaultServeOptions()
	opts.maxBodyBytes = 256
	ts := newTestServerOpts(t, opts)

	huge := `{"id":"x","points":[` + strings.Repeat("[41.1,-8.6,0],", 200) + `[41.2,-8.5,600]]}`
	for _, path := range []string{"/v1/train", "/v1/impute", "/v1/impute/batch"} {
		body := huge
		if path != "/v1/impute" {
			body = "[" + huge + "]"
		}
		status, _, resp := call(t, http.MethodPost, ts.URL+path, "application/json", body)
		wantErrorCode(t, status, resp, http.StatusRequestEntityTooLarge, codeTooLarge)
	}

	// A body under the cap still parses.
	status, _, resp := call(t, http.MethodPost, ts.URL+"/v1/impute", "application/json",
		`{"id":"x","points":[[41.1,-8.6,0],[41.2,-8.5,600]]}`)
	wantErrorCode(t, status, resp, http.StatusConflict, codeNotTrained)
}
