package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/obs"
)

// HeaderForwarded marks a request as already forwarded once.  A node that
// receives it serves locally no matter what the shard map says, so routing
// terminates after one hop even if two nodes momentarily disagree on the map.
const HeaderForwarded = "X-Kamel-Forwarded"

// ErrPeerUnavailable wraps the last transport or server error after the
// retry budget for a peer is exhausted (or the peer was known-dead and the
// call failed fast).  The serving layer keys its degradation ladder off it.
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// ErrPeerBusy marks a peer that is alive but actively refusing the work
// right now — 429 from its admission batcher or 409 (not trained).  It is
// deliberately NOT retried: retrying into an overloaded peer's shedder is a
// retry storm, and a peer that refused once will refuse the identical request
// again.  The refusal proves the peer alive but says nothing about its
// readiness (only /readyz decides that); the caller's degradation ladder
// moves on (next replica, then the linear fallback).
var ErrPeerBusy = errors.New("cluster: peer busy")

// ErrStaleMap is returned by Reload for a map whose generation is below the
// one currently routing.
var ErrStaleMap = errors.New("cluster: stale shard map generation")

// ErrUnknownShard is returned by Forward for a shard id absent from the map.
var ErrUnknownShard = errors.New("cluster: unknown shard")

// forwardRetries is how many additional attempts follow a failed read
// forward.  One retry absorbs a transient connect error or 5xx; a peer that
// fails twice is left to the replica walk (ForwardAny), which routes around
// it instead of waiting on it.
const forwardRetries = 1

// Options tune a Router.  The zero value of each field selects the default
// noted on it.
type Options struct {
	// Self is the shard id this process serves; required, and must appear in
	// every map the router is given.
	Self string
	// ForwardTimeout bounds one forwarded attempt (default 10s).
	ForwardTimeout time.Duration
	// RetryBackoff is the pause before a read forward's retry (default 50ms).
	RetryBackoff time.Duration
	// ProbeInterval is the /readyz health-probe period (default 5s).
	ProbeInterval time.Duration
	// Logger receives forward/probe warnings; nil uses slog.Default().
	Logger *slog.Logger
	// Registry receives the router's metrics (kamel_cluster_*); nil creates
	// a private registry, keeping the counters functional but unexported.
	Registry *obs.Registry
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.ForwardTimeout <= 0 {
		out.ForwardTimeout = 10 * time.Second
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 50 * time.Millisecond
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 5 * time.Second
	}
	if out.Logger == nil {
		out.Logger = slog.Default()
	}
	if out.Registry == nil {
		out.Registry = obs.NewRegistry()
	}
	return out
}

// peer is one remote shard's connection state.  Health is advisory: it is
// only consulted for fail-fast when a probe loop is running (otherwise a
// dead verdict could never be revised).
type peer struct {
	shard Shard
	// alive: the peer answered *something* over HTTP — the process is up
	// even if it has no models yet.  Gates writes (train fan-out), which an
	// untrained replica must receive to ever become ready.
	alive atomic.Bool
	// healthy: the peer's /readyz answered 200 — it can serve model
	// imputations.  Gates reads.
	healthy atomic.Bool
}

// routeState is the immutable evaluation of one shard map.  Swapped whole on
// Reload; in-flight forwards keep the peer objects they resolved, so a
// reload never tears a request.
type routeState struct {
	m     *Map
	keys  keyer
	ids   []string // sorted shard ids, the rendezvous candidate list
	peers map[string]*peer
}

// Router owns the routing decision (ReplicaGroup) and the transport to peers
// (Forward, ForwardAny, ForwardWrite, Get).  All methods are safe for
// concurrent use.
type Router struct {
	opts    Options
	client  *http.Client
	state   atomic.Pointer[routeState]
	probing atomic.Bool

	forwards    *obs.Counter // forwarded requests attempted
	forwardErrs *obs.Counter // forwards that exhausted retries
	retries     *obs.Counter // retry attempts issued
	degraded    *obs.Counter // elements served by the local linear fallback
	unavailable *obs.Counter // elements answered 503: no replica, no fallback
	failovers   *obs.Counter // forwards that moved past the primary replica
	writeFwd    *obs.Counter // train sub-batches forwarded to replica peers
	writeErrs   *obs.Counter // train sub-batch forwards that failed
	quorumFails *obs.Counter // train groups that missed write quorum

	histMu sync.Mutex
	hists  map[string]*obs.Histogram // peer id → forward latency histogram
}

// New builds a router for the given map.  opts.Self must be a shard in it.
func New(m *Map, opts Options) (*Router, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults()
	if o.Self == "" {
		return nil, fmt.Errorf("cluster: Options.Self is required")
	}
	r := &Router{
		opts:   o,
		client: &http.Client{},
		hists:  make(map[string]*obs.Histogram),
	}
	reg := o.Registry
	r.forwards = reg.Counter("kamel_cluster_forwards_total",
		"Requests forwarded to an owning peer shard.")
	r.forwardErrs = reg.Counter("kamel_cluster_forward_errors_total",
		"Forwards that exhausted their retry budget.")
	r.retries = reg.Counter("kamel_cluster_retries_total",
		"Forward retry attempts issued.")
	r.degraded = reg.Counter("kamel_cluster_degraded_total",
		"Requests served by the local linear fallback because the owning shard was down.")
	r.unavailable = reg.Counter("kamel_cluster_unavailable_total",
		"Requests answered 503: every owning peer unreachable and no local fallback.")
	r.failovers = reg.Counter("kamel_cluster_failovers_total",
		"Forwards that failed over past the primary to a lower-ranked replica.")
	r.writeFwd = reg.Counter("kamel_cluster_write_forwards_total",
		"Train sub-batches forwarded to replica peers.")
	r.writeErrs = reg.Counter("kamel_cluster_write_errors_total",
		"Train sub-batch forwards that failed.")
	r.quorumFails = reg.Counter("kamel_cluster_write_quorum_failures_total",
		"Train replica groups acknowledged by fewer than a majority.")
	reg.GaugeFunc("kamel_cluster_map_generation",
		"Generation of the shard map currently routing.", func() float64 {
			return float64(r.Map().Generation)
		})
	reg.GaugeFunc("kamel_cluster_peers_healthy",
		"Peers whose last health signal was good.", func() float64 {
			n := 0
			for _, p := range r.state.Load().peers {
				if p.healthy.Load() {
					n++
				}
			}
			return float64(n)
		})
	st, err := r.buildState(m, nil)
	if err != nil {
		return nil, err
	}
	r.state.Store(st)
	return r, nil
}

// buildState evaluates a map into routing state, carrying health over from
// prev for peers whose identity and address are unchanged.
func (r *Router) buildState(m *Map, prev *routeState) (*routeState, error) {
	st := &routeState{
		m:     m,
		keys:  newKeyer(m),
		ids:   m.ShardIDs(),
		peers: make(map[string]*peer, len(m.Shards)),
	}
	self := false
	for _, sh := range m.Shards {
		if sh.ID == r.opts.Self {
			self = true
			continue // never a peer of itself
		}
		p := &peer{shard: sh}
		p.alive.Store(true)
		p.healthy.Store(true)
		if prev != nil {
			if old, ok := prev.peers[sh.ID]; ok && old.shard.Addr == sh.Addr {
				p.alive.Store(old.alive.Load())
				p.healthy.Store(old.healthy.Load())
			}
		}
		st.peers[sh.ID] = p
	}
	if !self {
		return nil, fmt.Errorf("cluster: self shard %q not in map generation %d", r.opts.Self, m.Generation)
	}
	return st, nil
}

// Reload swaps in a new shard map atomically.  Maps older than the current
// generation are rejected with ErrStaleMap; the same generation is accepted
// idempotently.  In-flight forwards finish against the state they resolved.
func (r *Router) Reload(m *Map) error {
	if err := m.Validate(); err != nil {
		return err
	}
	cur := r.state.Load()
	if m.Generation < cur.m.Generation {
		return fmt.Errorf("%w: have %d, got %d", ErrStaleMap, cur.m.Generation, m.Generation)
	}
	st, err := r.buildState(m, cur)
	if err != nil {
		return err
	}
	r.state.Store(st)
	r.opts.Logger.Info("shard map reloaded", "component", "cluster",
		"generation", m.Generation, "shards", len(m.Shards))
	return nil
}

// Self returns this process's shard id.
func (r *Router) Self() string { return r.opts.Self }

// Map returns the shard map currently routing.
func (r *Router) Map() *Map { return r.state.Load().m }

// ReplicaGroup returns the ordered replica group for the trajectory described
// by points: the map's top-R rendezvous candidates for its shard cell, primary
// first.  ok is false for an empty point list (serve locally).
func (r *Router) ReplicaGroup(points []geo.Point) (group []string, cell grid.Cell, ok bool) {
	a, ok := anchor(points)
	if !ok {
		return []string{r.opts.Self}, 0, false
	}
	st := r.state.Load()
	c := st.keys.cellFor(a)
	return rendezvousRank(st.ids, c, st.m.ReplicaCount()), c, true
}

// PeerIDs returns the sorted ids of every shard in the map except self.
func (r *Router) PeerIDs() []string {
	st := r.state.Load()
	out := make([]string, 0, len(st.peers))
	for id := range st.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Healthy reports the last known health of a shard (self is always healthy).
func (r *Router) Healthy(shardID string) bool {
	if shardID == r.opts.Self {
		return true
	}
	p, ok := r.state.Load().peers[shardID]
	return ok && p.healthy.Load()
}

// CountDegraded records n elements served by the local linear fallback.
func (r *Router) CountDegraded(n int64) { r.degraded.Add(n) }

// CountUnavailable records n elements answered 503: every replica of their
// cell was unreachable and the local linear fallback could not serve them.
func (r *Router) CountUnavailable(n int64) { r.unavailable.Add(n) }

// CountWrites records the outcome of a train fan-out: acked peer forwards,
// failed peer forwards, and replica groups that missed majority quorum.
func (r *Router) CountWrites(acked, failed, quorumMisses int64) {
	r.writeFwd.Add(acked)
	r.writeErrs.Add(failed)
	r.quorumFails.Add(quorumMisses)
}

// ForwardResult is a peer's answer: the HTTP status and the full body.
type ForwardResult struct {
	Status int
	Body   []byte
}

// retryableStatus reports whether a peer's status code means "try this peer
// again" — only server-side failures (5xx) qualify.  429 (shedding) and 409
// (not trained) are active refusals: the peer is alive and will refuse the
// identical request again, so retrying only amplifies its load (see
// ErrPeerBusy).  Other 4xx mean the request itself is bad and pass through.
func retryableStatus(code int) bool {
	return code >= 500
}

// busyStatus reports whether a status is an active refusal: the peer cannot
// take this work now but is not down.
func busyStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusConflict
}

// Forward carries body to shardID's path (which may include a query string)
// as a POST and returns the peer's response (see peerRequest for the headers
// it carries).  A transport error or 5xx is retried once after RetryBackoff;
// when the retry fails too the peer is marked down and the error wraps
// ErrPeerUnavailable.  A 429/409 refusal is returned immediately (with the
// response) wrapping ErrPeerBusy — never retried, and the peer's readiness is
// left to the probe.
func (r *Router) Forward(ctx context.Context, shardID, path string, body []byte) (ForwardResult, error) {
	return r.forward(ctx, shardID, path, body, forwardRetries, true)
}

// ForwardWrite carries a non-idempotent request (a train batch) to a peer in
// exactly one attempt: no retry, because a retry after a lost response could
// apply the batch twice.  Error semantics match Forward, except health
// gating: writes fail fast only on a probed-*dead* peer, not a merely
// not-ready one — an untrained replica answers /readyz 503 yet must still
// receive train fan-out, or it could never bootstrap.
func (r *Router) ForwardWrite(ctx context.Context, shardID, path string, body []byte) (ForwardResult, error) {
	return r.forward(ctx, shardID, path, body, 0, false)
}

func (r *Router) forward(ctx context.Context, shardID, path string, body []byte, retries int, gateReady bool) (ForwardResult, error) {
	st := r.state.Load()
	p, ok := st.peers[shardID]
	if !ok {
		return ForwardResult{}, fmt.Errorf("%w: %q (map generation %d)", ErrUnknownShard, shardID, st.m.Generation)
	}
	// Fail fast on a known-bad peer, but only while a probe loop is running
	// to eventually revise the verdict.  Reads additionally require the peer
	// to be ready (it has models to serve with); writes only require it to
	// be alive.
	if r.probing.Load() {
		if !p.alive.Load() {
			return ForwardResult{}, fmt.Errorf("%w: %s marked down", ErrPeerUnavailable, shardID)
		}
		if gateReady && !p.healthy.Load() {
			return ForwardResult{}, fmt.Errorf("%w: %s marked unhealthy", ErrPeerUnavailable, shardID)
		}
	}
	r.forwards.Inc()

	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			r.retries.Inc()
			select {
			case <-time.After(r.opts.RetryBackoff):
			case <-ctx.Done():
				return ForwardResult{}, ctx.Err()
			}
		}
		start := time.Now()
		res, err := r.send(ctx, p, http.MethodPost, path, body)
		r.peerHist(p.shard.ID).ObserveDuration(time.Since(start))
		if err == nil {
			if busyStatus(res.Status) {
				// The peer answered, so it is alive — but a refusal (409 not
				// trained, 429 shedding) is no evidence of readiness: only
				// /readyz decides that.  Hand the refusal (and its body) to
				// the caller's ladder.
				p.alive.Store(true)
				return res, fmt.Errorf("%w: %s answered %d", ErrPeerBusy, shardID, res.Status)
			}
			if !retryableStatus(res.Status) {
				p.alive.Store(true)
				if gateReady {
					// Only a served read proves readiness; a write ack means
					// the peer accepted work, which /readyz will confirm.
					p.healthy.Store(true)
				}
				return res, nil
			}
			err = fmt.Errorf("cluster: peer %s answered %d", shardID, res.Status)
		}
		lastErr = err
		if ctx.Err() != nil {
			return ForwardResult{}, ctx.Err()
		}
	}
	p.alive.Store(false)
	p.healthy.Store(false)
	r.forwardErrs.Inc()
	r.opts.Logger.Warn("forward failed", "component", "cluster",
		"peer", shardID, "path", path, "err", lastErr.Error())
	return ForwardResult{}, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, shardID, lastErr)
}

// ForwardAny walks a replica group in rank order and returns the first
// answer: Forward semantics per member, failing over to the next on
// ErrPeerUnavailable or ErrPeerBusy.  Health gating is per member (a probed-
// dead peer fails fast and the walk moves on); servedBy names the member that
// answered.  Self entries are skipped — the caller serves locally before
// reaching for the group.  When every member fails, the last error (wrapping
// ErrPeerUnavailable or ErrPeerBusy) is returned.
func (r *Router) ForwardAny(ctx context.Context, group []string, path string, body []byte) (res ForwardResult, servedBy string, err error) {
	var lastErr error
	tried := 0
	for _, member := range group {
		if member == r.opts.Self {
			continue
		}
		if tried > 0 {
			r.failovers.Inc()
		}
		tried++
		sp := obs.StartSpan(ctx, "cluster.attempt")
		sp.SetAttr("peer", member)
		res, err := r.Forward(ctx, member, path, body)
		switch {
		case err == nil:
			sp.SetAttr("outcome", "ok")
		case errors.Is(err, ErrPeerBusy):
			sp.SetAttr("outcome", "busy")
		default:
			sp.SetAttr("outcome", "retriable")
		}
		sp.End()
		if err == nil {
			return res, member, nil
		}
		if ctx.Err() != nil {
			return ForwardResult{}, "", ctx.Err()
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: no forwardable replica in group %v", ErrPeerUnavailable, group)
	}
	return ForwardResult{}, "", lastErr
}

// Get issues one GET to a peer (no retry) and returns the full response.
// The anti-entropy syncer uses it to read peer manifests and pull model
// payloads, and trace stitching to read peer hops; transport failures wrap
// ErrPeerUnavailable without marking the peer unhealthy (the sweep is
// background work, not a serving signal).
func (r *Router) Get(ctx context.Context, shardID, path string) (ForwardResult, error) {
	st := r.state.Load()
	p, ok := st.peers[shardID]
	if !ok {
		return ForwardResult{}, fmt.Errorf("%w: %q (map generation %d)", ErrUnknownShard, shardID, st.m.Generation)
	}
	res, err := r.send(ctx, p, http.MethodGet, path, nil)
	if err != nil {
		return ForwardResult{}, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, shardID, err)
	}
	return res, nil
}

// send issues one request to a peer under ForwardTimeout and reads the full
// response.
func (r *Router) send(ctx context.Context, p *peer, method, path string, body []byte) (ForwardResult, error) {
	ctx, cancel := context.WithTimeout(ctx, r.opts.ForwardTimeout)
	defer cancel()
	req, err := r.peerRequest(ctx, method, p, path, body)
	if err != nil {
		return ForwardResult{}, err
	}
	return r.do(req)
}

// peerRequest builds every request this node sends a peer — forwards, Gets
// and health probes alike — carrying the hop's identity from ctx: the
// forwarded mark (the peer serves it locally), the request ID and
// traceparent (so logs and traces stitch across the hop), and the admission
// baggage (client identity and priority, so the peer's admission controller
// bills the true tenant — not this gateway — in the right lane).
func (r *Router) peerRequest(ctx context.Context, method string, p *peer, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, p.shard.Addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(HeaderForwarded, r.opts.Self)
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	if tc, ok := obs.TraceFrom(ctx).Context(); ok {
		req.Header.Set(obs.HeaderTraceparent, obs.FormatTraceparent(tc))
	}
	if id := obs.ClientIDFrom(ctx); id != "" {
		req.Header.Set(obs.HeaderClient, id)
	}
	if pri := obs.PriorityLabelFrom(ctx); pri != "" {
		req.Header.Set(obs.HeaderPriority, pri)
	}
	return req, nil
}

// do performs one peer request and reads the full response.
func (r *Router) do(req *http.Request) (ForwardResult, error) {
	resp, err := r.client.Do(req)
	if err != nil {
		return ForwardResult{}, err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return ForwardResult{}, err
	}
	return ForwardResult{Status: resp.StatusCode, Body: buf}, nil
}

// peerHist resolves the per-peer forward-latency histogram, cached so the
// steady state avoids a registry registration per request.
func (r *Router) peerHist(peerID string) *obs.Histogram {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	h := r.hists[peerID]
	if h == nil {
		h = r.opts.Registry.Histogram("kamel_cluster_forward_seconds",
			"Forwarded-request latency by peer shard.", nil, obs.L("peer", peerID))
		r.hists[peerID] = h
	}
	return h
}

// StartProbing runs the health-probe loop until ctx is cancelled: every
// ProbeInterval each peer's /readyz is checked, updating the alive flag
// (ForwardWrite fail-fasts on it) and the ready flag (Forward fail-fasts on
// it; /v1/stats reports it).  Run it in a goroutine.
func (r *Router) StartProbing(ctx context.Context) {
	r.probing.Store(true)
	defer r.probing.Store(false)
	ticker := time.NewTicker(r.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		r.probeOnce(ctx)
		select {
		case <-ticker.C:
		case <-ctx.Done():
			return
		}
	}
}

// probeOnce checks every peer's /readyz once, concurrently.
func (r *Router) probeOnce(ctx context.Context) {
	st := r.state.Load()
	timeout := r.opts.ProbeInterval
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, p := range st.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			alive, ready := r.probePeer(ctx, p, timeout)
			wasAlive := p.alive.Swap(alive)
			wasReady := p.healthy.Swap(ready)
			if wasAlive != alive || wasReady != ready {
				r.opts.Logger.Info("peer health changed", "component", "cluster",
					"peer", p.shard.ID, "alive", alive, "ready", ready)
			}
		}(p)
	}
	wg.Wait()
}

// probePeer GETs the peer's /readyz.  alive means the request got *any* HTTP
// answer (the process is up — e.g. an untrained node answers 503); ready
// means it answered 200 (it can serve model imputations).
func (r *Router) probePeer(ctx context.Context, p *peer, timeout time.Duration) (alive, ready bool) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := r.peerRequest(ctx, http.MethodGet, p, "/readyz", nil)
	if err != nil {
		return false, false
	}
	res, err := r.do(req)
	if err != nil {
		return false, false
	}
	return true, res.Status == http.StatusOK
}

// PeerStatus is one peer's identity and health for /v1/stats.
type PeerStatus struct {
	ID      string `json:"id"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// Stats is the router's cumulative accounting, embedded into /v1/stats so
// operators see the sharding layer next to the serving counters.
type Stats struct {
	Self           string       `json:"self"`
	MapGeneration  int          `json:"map_generation"`
	ShardCellEdgeM float64      `json:"shard_cell_edge_m"`
	Shards         int          `json:"shards"`
	Replicas       int          `json:"replicas"`
	PeersHealthy   int          `json:"peers_healthy"`
	Forwards       int64        `json:"forwarded_requests"`
	ForwardErrors  int64        `json:"forward_errors"`
	Retries        int64        `json:"forward_retries"`
	Failovers      int64        `json:"replica_failovers"`
	Degraded       int64        `json:"degraded_requests"`
	Unavailable    int64        `json:"unavailable_requests"`
	WriteForwards  int64        `json:"write_forwards"`
	WriteErrors    int64        `json:"write_errors"`
	QuorumFailures int64        `json:"write_quorum_failures"`
	Peers          []PeerStatus `json:"peers"`
}

// ClusterStats snapshots the router's accounting.
func (r *Router) ClusterStats() Stats {
	st := r.state.Load()
	out := Stats{
		Self:           r.opts.Self,
		MapGeneration:  st.m.Generation,
		ShardCellEdgeM: st.m.EdgeM(),
		Shards:         len(st.m.Shards),
		Replicas:       st.m.ReplicaCount(),
		Forwards:       r.forwards.Value(),
		ForwardErrors:  r.forwardErrs.Value(),
		Retries:        r.retries.Value(),
		Failovers:      r.failovers.Value(),
		Degraded:       r.degraded.Value(),
		Unavailable:    r.unavailable.Value(),
		WriteForwards:  r.writeFwd.Value(),
		WriteErrors:    r.writeErrs.Value(),
		QuorumFailures: r.quorumFails.Value(),
	}
	for _, p := range st.peers {
		healthy := p.healthy.Load()
		if healthy {
			out.PeersHealthy++
		}
		out.Peers = append(out.Peers, PeerStatus{ID: p.shard.ID, Addr: p.shard.Addr, Healthy: healthy})
	}
	sort.Slice(out.Peers, func(i, j int) bool { return out.Peers[i].ID < out.Peers[j].ID })
	return out
}
