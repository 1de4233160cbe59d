package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"kamel/internal/geo"
	"kamel/internal/grid"
)

// TestClusterRendezvousRank checks the ordered candidate list the replica
// groups are built from: the first entry is the R=1 owner, the list is
// deterministic and roster-order independent, members are distinct, and
// removing the primary promotes the rest of the list element-wise (the N-way
// extension of rendezvous hashing's minimal-disruption property).
func TestClusterRendezvousRank(t *testing.T) {
	ids := []string{"shard-0", "shard-1", "shard-2", "shard-3", "shard-4"}
	rev := []string{"shard-4", "shard-3", "shard-2", "shard-1", "shard-0"}
	for i := 0; i < 500; i++ {
		c := grid.Cell(int64(i)*2654435761 ^ int64(i)<<32)
		rank := rendezvousRank(ids, c, 3)
		if len(rank) != 3 {
			t.Fatalf("rank length %d, want 3", len(rank))
		}
		if owner := rendezvousRank(ids, c, 1)[0]; rank[0] != owner {
			t.Fatalf("rank[0] %q != R=1 owner %q for cell %v", rank[0], owner, c)
		}
		seen := map[string]bool{}
		for _, id := range rank {
			if seen[id] {
				t.Fatalf("duplicate member %q in group %v", id, rank)
			}
			seen[id] = true
		}
		for j, id := range rendezvousRank(rev, c, 3) {
			if rank[j] != id {
				t.Fatalf("rank depends on roster order: %v vs reversed", rank)
			}
		}
		// Remove the primary: the remaining members shift up one, and exactly
		// one new member joins at the tail.
		var without []string
		for _, id := range ids {
			if id != rank[0] {
				without = append(without, id)
			}
		}
		promoted := rendezvousRank(without, c, 3)
		if promoted[0] != rank[1] || promoted[1] != rank[2] {
			t.Fatalf("removing primary %q did not promote tail: %v -> %v", rank[0], rank, promoted)
		}
	}

	// n clamps to the roster on both ends.
	c := grid.Cell(42)
	if got := rendezvousRank(ids, c, 99); len(got) != len(ids) {
		t.Errorf("rank n=99 returned %d members, want %d", len(got), len(ids))
	}
	if got := rendezvousRank(ids, c, 0); len(got) != 1 {
		t.Errorf("rank n=0 returned %d members, want 1", len(got))
	}
}

// TestClusterMapReplicas pins Map.Replicas semantics: validation bounds and
// the ReplicaCount clamp (0 means 1; never more than the roster).
func TestClusterMapReplicas(t *testing.T) {
	m := testMap(1, Shard{ID: "a", Addr: "http://h:1"}, Shard{ID: "b", Addr: "http://h:2"})
	if got := m.ReplicaCount(); got != 1 {
		t.Errorf("unset replicas count = %d, want 1", got)
	}
	m.Replicas = 2
	if err := m.Validate(); err != nil {
		t.Fatalf("R=2 over 2 shards rejected: %v", err)
	}
	if got := m.ReplicaCount(); got != 2 {
		t.Errorf("replica count = %d, want 2", got)
	}
	m.Replicas = 3
	if err := m.Validate(); err == nil {
		t.Error("R=3 over 2 shards must fail validation")
	}
	m.Replicas = -1
	if err := m.Validate(); err == nil {
		t.Error("negative replicas must fail validation")
	}
}

// TestClusterReplicaGroup checks the router's group resolution: the group is
// the top-ReplicaCount rendezvous ranking of the trajectory's shard cell,
// agrees across nodes, and an empty trajectory collapses to self.
func TestClusterReplicaGroup(t *testing.T) {
	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: "http://h:2"},
		Shard{ID: "shard-2", Addr: "http://h:3"})
	m.Replicas = 2
	r0, err := New(m, Options{Self: "shard-0", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(m, Options{Self: "shard-1", Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	pts := []geo.Point{
		{Lat: 41.16, Lng: -8.60, T: 0},
		{Lat: 41.161, Lng: -8.599, T: 60},
	}
	g0, c0, ok := r0.ReplicaGroup(pts)
	if !ok || len(g0) != 2 {
		t.Fatalf("group = %v ok=%v, want 2 members", g0, ok)
	}
	if rank := rendezvousRank(m.ShardIDs(), c0, 2); rank[0] != g0[0] || rank[1] != g0[1] {
		t.Fatalf("group %v is not the cell's rendezvous ranking %v", g0, rank)
	}
	g1, _, _ := r1.ReplicaGroup(pts)
	if len(g1) != 2 || g1[0] != g0[0] || g1[1] != g0[1] {
		t.Fatalf("nodes disagree on replica group: %v vs %v", g0, g1)
	}
	if g, _, ok := r0.ReplicaGroup(nil); ok || len(g) != 1 || g[0] != "shard-0" {
		t.Fatalf("empty trajectory group = %v ok=%v, want [self] and ok=false", g, ok)
	}
}

// TestClusterForwardBusyClassification pins satellite behaviour: an active
// refusal (429 overloaded, 409 not trained) is returned immediately as
// ErrPeerBusy — exactly one attempt, no retry, no unhealthy marking — while
// other 4xx pass through as ordinary responses.
func TestClusterForwardBusyClassification(t *testing.T) {
	var calls atomic.Int64
	status := atomic.Int64{}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		code := int(status.Load())
		w.WriteHeader(code)
		fmt.Fprintf(w, `{"error":{"code":"x","message":"status %d"}}`, code)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{
		Self: "shard-0", RetryBackoff: time.Millisecond,
		Logger: testLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, code := range []int{http.StatusTooManyRequests, http.StatusConflict} {
		calls.Store(0)
		status.Store(int64(code))
		res, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`))
		if !errors.Is(err, ErrPeerBusy) {
			t.Fatalf("status %d error = %v, want ErrPeerBusy", code, err)
		}
		if res.Status != code || len(res.Body) == 0 {
			t.Fatalf("status %d: refusal response %d %q not handed back", code, res.Status, res.Body)
		}
		if got := calls.Load(); got != 1 {
			t.Fatalf("status %d: peer saw %d calls, want exactly 1 (no retry)", code, got)
		}
		if !rt.Healthy("shard-1") {
			t.Fatalf("status %d: busy peer must stay healthy", code)
		}
	}
	st := rt.ClusterStats()
	if st.Retries != 0 || st.ForwardErrors != 0 {
		t.Errorf("stats = %+v, want no retries and no forward errors for refusals", st)
	}

	// An ordinary client error is not a refusal: it passes through with a nil
	// error and still consumes no retries.
	calls.Store(0)
	status.Store(http.StatusBadRequest)
	res, err := rt.Forward(context.Background(), "shard-1", "/v1/impute", []byte(`{}`))
	if err != nil || res.Status != http.StatusBadRequest {
		t.Fatalf("400 forward = %d/%v, want passthrough with nil error", res.Status, err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("400: peer saw %d calls, want 1", got)
	}
}

// TestClusterForwardWriteSingleAttempt pins the non-idempotent write path:
// one attempt only, even against a 500-answering peer that a read would retry.
func TestClusterForwardWriteSingleAttempt(t *testing.T) {
	var calls atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer peer.Close()

	m := testMap(1, Shard{ID: "shard-0", Addr: "http://h:1"}, Shard{ID: "shard-1", Addr: peer.URL})
	rt, err := New(m, Options{Self: "shard-0", RetryBackoff: time.Millisecond, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.ForwardWrite(context.Background(), "shard-1", "/v1/train", []byte(`[]`)); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("write to failing peer = %v, want ErrPeerUnavailable", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("peer saw %d calls, want exactly 1 (writes are never retried)", got)
	}
}

// TestClusterForwardAnyFailover walks the replica failover: a dead primary is
// skipped, the next replica serves, the failover counter moves, and self
// entries are never dialed.
func TestClusterForwardAnyFailover(t *testing.T) {
	var served atomic.Int64
	alive := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer alive.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // already down

	m := testMap(1,
		Shard{ID: "shard-0", Addr: "http://h:1"},
		Shard{ID: "shard-1", Addr: dead.URL},
		Shard{ID: "shard-2", Addr: alive.URL})
	rt, err := New(m, Options{Self: "shard-0", RetryBackoff: time.Millisecond, Logger: testLogger()})
	if err != nil {
		t.Fatal(err)
	}

	res, servedBy, err := rt.ForwardAny(context.Background(), []string{"shard-0", "shard-1", "shard-2"}, "/v1/impute", []byte(`{}`))
	if err != nil {
		t.Fatalf("failover forward: %v", err)
	}
	if servedBy != "shard-2" || res.Status != http.StatusOK {
		t.Fatalf("served by %q status %d, want the live replica shard-2", servedBy, res.Status)
	}
	if served.Load() != 1 {
		t.Fatalf("live replica saw %d calls, want 1", served.Load())
	}
	if st := rt.ClusterStats(); st.Failovers != 1 {
		t.Errorf("failovers = %d, want 1 (moved past the dead primary)", st.Failovers)
	}

	// Group of only self and dead members: typed unavailability.
	if _, _, err := rt.ForwardAny(context.Background(), []string{"shard-0", "shard-1"}, "/v1/impute", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("all-dead group error = %v, want ErrPeerUnavailable", err)
	}
	if _, _, err := rt.ForwardAny(context.Background(), []string{"shard-0"}, "/v1/impute", nil); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("self-only group error = %v, want ErrPeerUnavailable", err)
	}
}
