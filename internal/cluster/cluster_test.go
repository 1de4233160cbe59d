package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/obs"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testMap(gen int, shards ...Shard) *Map {
	return &Map{
		Version:    MapVersion,
		Generation: gen,
		OriginLat:  41.15,
		OriginLng:  -8.61,
		CellEdgeM:  500,
		Shards:     shards,
	}
}

func TestClusterMapValidation(t *testing.T) {
	good := testMap(1, Shard{ID: "a", Addr: "http://127.0.0.1:1"}, Shard{ID: "b", Addr: "http://127.0.0.1:2"})
	if err := good.Validate(); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Map)
	}{
		{"wrong version", func(m *Map) { m.Version = 2 }},
		{"no shards", func(m *Map) { m.Shards = nil }},
		{"empty id", func(m *Map) { m.Shards[0].ID = "" }},
		{"duplicate id", func(m *Map) { m.Shards[1].ID = m.Shards[0].ID }},
		{"bad addr", func(m *Map) { m.Shards[0].Addr = "not a url" }},
		{"bad scheme", func(m *Map) { m.Shards[0].Addr = "ftp://x:1" }},
		{"negative generation", func(m *Map) { m.Generation = -1 }},
		{"absurd level", func(m *Map) { m.Level = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := *good
			m.Shards = append([]Shard(nil), good.Shards...)
			tc.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Errorf("%s: want validation error", tc.name)
			}
		})
	}

	// JSON round trip preserves the map; ParseMap validates.
	if _, err := ParseMap([]byte(`{"version":1,"shards":[]}`)); err == nil {
		t.Error("ParseMap accepted a shardless map")
	}

	// Level scales the cell edge by powers of two.
	m := testMap(1, Shard{ID: "a", Addr: "http://h:1"})
	m.CellEdgeM = 1000
	m.Level = 2
	if got := m.EdgeM(); got != 250 {
		t.Errorf("EdgeM at level 2 = %v, want 250", got)
	}
	m.CellEdgeM = 0
	m.Level = 0
	if got := m.EdgeM(); got != DefaultCellEdgeM {
		t.Errorf("default EdgeM = %v, want %v", got, DefaultCellEdgeM)
	}
}

// TestClusterRendezvousProperties checks the three properties routing relies
// on: determinism, rough balance, and minimal disruption when a shard leaves.
func TestClusterRendezvousProperties(t *testing.T) {
	ids := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	ownerOf := func(ids []string, c grid.Cell) string { return rendezvousRank(ids, c, 1)[0] }
	const cells = 2000
	counts := make(map[string]int)
	owners := make(map[grid.Cell]string, cells)
	for i := 0; i < cells; i++ {
		c := grid.Cell(int64(i)*2654435761 ^ int64(i)<<32)
		owner := ownerOf(ids, c)
		if again := ownerOf(ids, c); again != owner {
			t.Fatalf("owner of %v not deterministic: %q then %q", c, owner, again)
		}
		// Roster order must not matter.
		rev := []string{"shard-4", "shard-3", "shard-2", "shard-1", "shard-0"}
		if other := ownerOf(rev, c); other != owner {
			t.Fatalf("owner of %v depends on roster order: %q vs %q", c, owner, other)
		}
		owners[c] = owner
		counts[owner]++
	}
	for _, id := range ids {
		if counts[id] < cells/len(ids)/3 {
			t.Errorf("shard %s owns only %d of %d cells; want rough balance %v", id, counts[id], cells, counts)
		}
	}

	// Remove one shard: only its cells may change owner.
	without := []string{"shard-0", "shard-1", "shard-3", "shard-4"}
	moved := 0
	for c, owner := range owners {
		newOwner := ownerOf(without, c)
		if owner == "shard-2" {
			moved++
			if newOwner == "shard-2" {
				t.Fatalf("cell %v still owned by removed shard", c)
			}
			continue
		}
		if newOwner != owner {
			t.Fatalf("cell %v owned by surviving %q was re-homed to %q", c, owner, newOwner)
		}
	}
	if moved == 0 {
		t.Fatal("removed shard owned no cells; test is vacuous")
	}
}

// TestClusterOwnerAnchor checks trajectory routing keys off the MBR center
// and stays stable across nodes evaluating the same map: at R=1 the replica
// group is the cell's single rendezvous owner.
func TestClusterOwnerAnchor(t *testing.T) {
	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: "http://h:2"},
		Shard{ID: "shard-2", Addr: "http://h:3"})
	r0, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(m, Options{Self: "shard-1", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := 0; i < 40; i++ {
		pts := []geo.Point{
			{Lat: 41.15 + float64(i)*0.004, Lng: -8.61, T: 0},
			{Lat: 41.15 + float64(i)*0.004 + 0.001, Lng: -8.609, T: 60},
		}
		g0, c0, ok := r0.ReplicaGroup(pts)
		if !ok || len(g0) != 1 {
			t.Fatalf("R=1 group = %v ok=%v, want a single owner", g0, ok)
		}
		g1, c1, _ := r1.ReplicaGroup(pts)
		if g0[0] != g1[0] || c0 != c1 {
			t.Fatalf("nodes disagree on owner: %q/%v vs %q/%v", g0[0], c0, g1[0], c1)
		}
		// The MBR center decides: the reversed trajectory routes identically.
		rev, _, _ := r0.ReplicaGroup([]geo.Point{pts[1], pts[0]})
		if rev[0] != g0[0] {
			t.Fatalf("point order moved the owner: %q vs %q", rev[0], g0[0])
		}
		seen[g0[0]] = true
	}
	if len(seen) < 2 {
		t.Errorf("40 spread trajectories landed on %d shard(s); want spatial spread", len(seen))
	}
}

// TestClusterForwardRetryAndRecovery drives the bounded-retry path: a peer
// that fails once is retried after RetryBackoff, succeeds, and stays healthy;
// a dead peer exhausts the one retry, surfaces ErrPeerUnavailable, and is
// named in the operator's warning log.
func TestClusterForwardRetryAndRecovery(t *testing.T) {
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(HeaderForwarded) != "shard-0" {
			t.Errorf("forwarded request missing %s header", HeaderForwarded)
		}
		if calls.Add(1) == 1 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	const backoff = 20 * time.Millisecond
	var logs bytes.Buffer
	rt, err := New(m, Options{Self: "shard-0", RetryBackoff: backoff, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`))
	if err != nil {
		t.Fatalf("forward with one transient failure: %v", err)
	}
	if elapsed := time.Since(start); elapsed < backoff {
		t.Errorf("retry after %v, want at least RetryBackoff %v", elapsed, backoff)
	}
	if res.Status != http.StatusOK || string(res.Body) != `{"ok":true}` {
		t.Fatalf("unexpected result %d %q", res.Status, res.Body)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("peer saw %d calls, want 2 (original + retry)", got)
	}
	if !rt.Healthy("shard-1") {
		t.Error("peer must be healthy after a successful forward")
	}
	st := rt.ClusterStats()
	if st.Forwards != 1 || st.Retries != 1 || st.ForwardErrors != 0 {
		t.Errorf("stats = %+v, want 1 forward, 1 retry, 0 errors", st)
	}

	// Kill the peer: the retry budget is exhausted and the error is typed.
	peer.Close()
	_, err = rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`))
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("dead peer error = %v, want ErrPeerUnavailable", err)
	}
	if rt.Healthy("shard-1") {
		t.Error("peer must be marked unhealthy after exhausting retries")
	}
	if st := rt.ClusterStats(); st.ForwardErrors != 1 {
		t.Errorf("forward errors = %d, want 1", st.ForwardErrors)
	}
	if out := logs.String(); !strings.Contains(out, "forward failed") || !strings.Contains(out, "peer=shard-1") {
		t.Errorf("dead peer not named in the warning log:\n%s", out)
	}

	// Unknown shards are a distinct, non-retried error.
	if _, err := rt.Forward(context.Background(), "nope", "/", nil); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("unknown shard error = %v", err)
	}
}

// TestClusterReloadKeepsInFlight proves the reload contract: swapping the
// shard map re-routes new requests without tearing one already in flight,
// and stale generations are rejected.
func TestClusterReloadKeepsInFlight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, `{"done":true}`)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", ForwardTimeout: 5 * time.Second, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}

	type done struct {
		res ForwardResult
		err error
	}
	resCh := make(chan done, 1)
	go func() {
		res, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`))
		resCh <- done{res, err}
	}()
	<-entered // the forward is inside the peer handler

	// Roll out generation 2: shard-1 is gone from the map.
	m2 := testMap(2, Shard{ID: "shard-0", Addr: "http://h:1"})
	if err := rt.Reload(m2); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if rt.Map().Generation != 2 {
		t.Fatalf("map generation %d after reload", rt.Map().Generation)
	}
	// New requests no longer know shard-1...
	if _, err := rt.Forward(context.Background(), "shard-1", "/", nil); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("post-reload forward error = %v, want ErrUnknownShard", err)
	}
	// ...but the in-flight one completes against the state it resolved.
	close(release)
	d := <-resCh
	if d.err != nil || d.res.Status != http.StatusOK {
		t.Fatalf("in-flight forward dropped by reload: %v (status %d)", d.err, d.res.Status)
	}

	// A stale map (generation 1 < 2) must be rejected.
	if err := rt.Reload(m); !errors.Is(err, ErrStaleMap) {
		t.Fatalf("stale reload error = %v, want ErrStaleMap", err)
	}
	// A map without self must be rejected.
	m3 := testMap(3, Shard{ID: "shard-9", Addr: "http://h:9"})
	if err := rt.Reload(m3); err == nil {
		t.Fatal("reload accepted a map without self")
	}
}

// TestClusterProbeHealth drives the /readyz probe loop: an unready peer is
// marked unhealthy (and forwarded requests fail fast), then recovers.
func TestClusterProbeHealth(t *testing.T) {
	var ready atomic.Bool
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && !ready.Load() {
			http.Error(w, "warming", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ready"}`)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", ProbeInterval: 5 * time.Millisecond, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probeDone := make(chan struct{})
	go func() { rt.StartProbing(ctx); close(probeDone) }()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.Healthy("shard-1") != want {
			if time.Now().After(deadline) {
				t.Fatalf("peer never became %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(false, "unhealthy")
	// Fail-fast: with probing active, a dead-marked peer is not dialed.
	if _, err := rt.Forward(ctx, "shard-1", "/v1/impute", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("fail-fast error = %v, want ErrPeerUnavailable", err)
	}
	ready.Store(true)
	waitFor(true, "healthy again")
	if _, err := rt.Forward(ctx, "shard-1", "/v1/impute", []byte(`{}`)); err != nil {
		t.Fatalf("forward after recovery: %v", err)
	}
	if st := rt.ClusterStats(); st.PeersHealthy != 1 {
		t.Errorf("peers_healthy = %d, want 1 after recovery", st.PeersHealthy)
	}
	cancel()
	<-probeDone
}

// TestClusterForwardWriteBypassesReadinessGate pins the bootstrap path of a
// fresh replica: a peer that answers /readyz 503 (alive but untrained) is
// fail-fasted for reads, yet ForwardWrite still delivers the train batch —
// otherwise an empty node could never receive the fan-out that makes it
// ready.
func TestClusterForwardWriteBypassesReadinessGate(t *testing.T) {
	var trains atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/readyz":
			http.Error(w, `{"error":{"code":"not_trained"}}`, http.StatusServiceUnavailable)
		case "/v1/train":
			trains.Add(1)
			fmt.Fprint(w, `{"trajectories":1}`)
		default:
			http.NotFound(w, r)
		}
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", ProbeInterval: 5 * time.Millisecond, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probeDone := make(chan struct{})
	go func() { rt.StartProbing(ctx); close(probeDone) }()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Healthy("shard-1") {
		if time.Now().After(deadline) {
			t.Fatal("peer never marked not-ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Reads fail fast on a not-ready peer...
	if _, err := rt.Forward(ctx, "shard-1", "/v1/impute", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("read fail-fast error = %v, want ErrPeerUnavailable", err)
	}
	// ...but writes go through: the peer is alive.
	res, err := rt.ForwardWrite(ctx, "shard-1", "/v1/train", []byte(`[]`))
	if err != nil {
		t.Fatalf("ForwardWrite to alive-but-unready peer: %v", err)
	}
	if res.Status != http.StatusOK || trains.Load() != 1 {
		t.Fatalf("write not delivered: status=%d trains=%d", res.Status, trains.Load())
	}
	// A write ack must not flip the readiness verdict — only /readyz does.
	if rt.Healthy("shard-1") {
		t.Error("write ack marked a not-ready peer healthy")
	}
	cancel()
	<-probeDone
}

// TestClusterForwardBusyKeepsReadiness pins that an active refusal proves a
// peer alive, never ready: once the probe has marked a peer not-ready, a
// write answered 409 (tokenizer-spec conflict) or 429 (shedding), and a read
// answered 409 (not trained), all leave Healthy false — only /readyz decides.
func TestClusterForwardBusyKeepsReadiness(t *testing.T) {
	var status atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			http.Error(w, `{"error":{"code":"not_trained"}}`, http.StatusServiceUnavailable)
			return
		}
		code := int(status.Load())
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error":{"code":"x","message":"status %d"}}`, code)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	// One immediate probe, then none for the test's lifetime: nothing but the
	// forwards below can touch the verdict it leaves.
	rt, err := New(m, Options{Self: "shard-0", ProbeInterval: time.Hour, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	probeDone := make(chan struct{})
	go func() { rt.StartProbing(ctx); close(probeDone) }()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Healthy("shard-1") {
		if time.Now().After(deadline) {
			t.Fatal("peer never marked not-ready")
		}
		time.Sleep(2 * time.Millisecond)
	}

	for _, code := range []int{http.StatusConflict, http.StatusTooManyRequests} {
		status.Store(int64(code))
		if _, err := rt.ForwardWrite(ctx, "shard-1", "/v1/train", []byte(`[]`)); !errors.Is(err, ErrPeerBusy) {
			t.Fatalf("write answered %d: error = %v, want ErrPeerBusy", code, err)
		}
		if rt.Healthy("shard-1") {
			t.Fatalf("write answered %d marked a not-ready peer ready", code)
		}
	}
	cancel()
	<-probeDone

	// Without a probe loop reads are not gated, so a read reaches the peer:
	// its 409 not_trained must not flip the verdict either.
	status.Store(http.StatusConflict)
	if _, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`)); !errors.Is(err, ErrPeerBusy) {
		t.Fatalf("read answered 409: error = %v, want ErrPeerBusy", err)
	}
	if rt.Healthy("shard-1") {
		t.Fatal("read answered 409 not_trained marked a not-ready peer ready")
	}
}

// TestClusterForwardTimeoutRoutesAroundStall pins what replaced same-peer
// hedging: a peer that accepts the connection and never answers costs each
// attempt at most ForwardTimeout, after which the replica walk serves the
// request from the next member of the group.
func TestClusterForwardTimeoutRoutesAroundStall(t *testing.T) {
	release := make(chan struct{})
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer stalled.Close()
	defer close(release)
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer ok.Close()

	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: stalled.URL},
		Shard{ID: "shard-2", Addr: ok.URL})
	rt, err := New(m, Options{
		Self: "shard-0", ForwardTimeout: 50 * time.Millisecond, RetryBackoff: time.Millisecond,
		Logger: testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, servedBy, err := rt.ForwardAny(context.Background(), []string{"shard-1", "shard-2"}, "/v1/impute", []byte(`{}`))
	if err != nil || servedBy != "shard-2" || res.Status != http.StatusOK {
		t.Fatalf("walk past stalled peer: served by %q status %d err %v, want shard-2/200", servedBy, res.Status, err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled peer held the walk for %v; ForwardTimeout did not bound it", elapsed)
	}
	if rt.Healthy("shard-1") {
		t.Error("stalled peer still marked healthy after timing out twice")
	}
}

// TestClusterProbeTimeoutCapped pins the probe's own deadline: a peer whose
// /readyz never answers is marked down within the 2 s cap even when the probe
// period is far longer, instead of wedging the probe loop for a whole period.
func TestClusterProbeTimeoutCapped(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer peer.Close()
	defer close(release)

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", ProbeInterval: time.Hour, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	probeDone := make(chan struct{})
	go func() { rt.StartProbing(ctx); close(probeDone) }()
	deadline := time.Now().Add(4 * time.Second)
	for rt.Healthy("shard-1") {
		if time.Now().After(deadline) {
			t.Fatal("a never-answering peer was not marked down within the probe timeout cap")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-probeDone
}

// TestClusterMetricsExport pins the router's exported gauges and per-peer
// histogram as an operator scrapes them from the node's registry: the map
// generation (is every node on the rolled-out map?), the healthy-peer count
// (is a peer down?) and forward latency by peer (which peer is slow?).
func TestClusterMetricsExport(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			http.Error(w, "warming", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	defer peer.Close()

	reg := obs.NewRegistry()
	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", ProbeInterval: time.Hour, Logger: testLogger(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Reload(testMap(2, m.Shards...)); err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, want := range []string{
		"kamel_cluster_map_generation 2",
		"kamel_cluster_peers_healthy 1",
		`kamel_cluster_forward_seconds_count{peer="shard-1"} 1`,
	} {
		if out := scrape(); !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// The probe finds the peer not ready: the gauge drops.
	ctx, cancel := context.WithCancel(context.Background())
	probeDone := make(chan struct{})
	go func() { rt.StartProbing(ctx); close(probeDone) }()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(scrape(), "kamel_cluster_peers_healthy 0\n") {
		if time.Now().After(deadline) {
			t.Fatal("kamel_cluster_peers_healthy never dropped to 0 for a not-ready peer")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-probeDone
}
