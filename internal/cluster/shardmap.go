// Package cluster is KAMEL's horizontal-sharding layer: it spreads the
// serving load of one deployment across N KAMEL processes by *space*.  The
// paper's pyramid model repository (§4) already partitions the region so
// that every imputation is served by the model of a small area; this package
// lifts the same idea one level up — the region is carved into coarse hex
// shard cells, each cell is deterministically served by a replica group of
// shard processes (rendezvous ranking), and a serving node forwards any
// request outside its groups to the group's members.
//
// The package has two halves:
//
//   - Map is the versioned, JSON-serialized shard map every node loads: the
//     projection origin and hex shard-cell size that define the shard key,
//     plus the shard roster (id → HTTP address).  The same map bytes on every
//     node guarantee the same cell → shard decision everywhere, so requests
//     converge in at most one hop (forwarded requests are always served
//     locally — see the serving layer's X-Kamel-Forwarded contract).
//
//   - Router evaluates the map (ReplicaGroup) and carries requests to peers
//     (Forward, ForwardAny) with one bounded retry, failover down the replica
//     group, and /readyz health probing.  The routing state is swapped
//     atomically on Reload, so a shard-map rollout never drops in-flight
//     requests.
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/url"
	"os"
	"sort"

	"kamel/internal/geo"
	"kamel/internal/grid"
)

// MapVersion is the shard-map format version this package reads and writes.
const MapVersion = 1

// DefaultCellEdgeM is the shard-cell hexagon edge used when a map does not
// set one: ~2 km cells are coarse enough that one urban trajectory rarely
// crosses more than a couple, and fine enough to spread a city across a
// handful of shards.
const DefaultCellEdgeM = 2000

// Shard is one serving process in the map.
type Shard struct {
	ID   string `json:"id"`   // stable identity, the rendezvous-hash key
	Addr string `json:"addr"` // base URL, e.g. "http://10.0.0.7:8080"
}

// Map is the versioned shard map.  It is pure data — the full routing input
// every node needs to make identical decisions:
//
//   - OriginLat/OriginLng fix the planar projection the shard grid lives in
//     (independent of any node's training-derived projection, so an untrained
//     node can still route).
//   - CellEdgeM and Level size the hex shard cells: the effective edge is
//     CellEdgeM / 2^Level, mirroring how pyramid level l halves the cell
//     side.  Level 0 uses CellEdgeM as-is.
//   - Shards is the roster; each cell is owned by the rendezvous-hash winner
//     among them.
//
// Generation orders map revisions: Router.Reload rejects a map whose
// generation is lower than the one it already routes by, so a stale file
// can never roll the cluster backwards.
type Map struct {
	Version    int     `json:"version"`
	Generation int     `json:"generation"`
	OriginLat  float64 `json:"origin_lat"`
	OriginLng  float64 `json:"origin_lng"`
	CellEdgeM  float64 `json:"cell_edge_m,omitempty"`
	Level      int     `json:"level,omitempty"`
	// Replicas is the replica-group size R: each shard cell is served by the
	// top R shards of its rendezvous ranking (rank 0 is the primary).  0 and
	// 1 both mean single-owner (the pre-replication behaviour).  Because the
	// ranking is a pure function of the map, every node derives identical
	// replica groups from the same map bytes.
	Replicas int     `json:"replicas,omitempty"`
	Shards   []Shard `json:"shards"`
}

// ReplicaCount returns the effective replica-group size: Replicas clamped to
// [1, len(Shards)].
func (m *Map) ReplicaCount() int {
	r := m.Replicas
	if r < 1 {
		r = 1
	}
	if r > len(m.Shards) {
		r = len(m.Shards)
	}
	return r
}

// EdgeM returns the effective shard-cell hexagon edge in meters:
// CellEdgeM (default DefaultCellEdgeM) halved Level times.
func (m *Map) EdgeM() float64 {
	edge := m.CellEdgeM
	if edge <= 0 {
		edge = DefaultCellEdgeM
	}
	return edge * math.Pow(2, -float64(m.Level))
}

// Validate reports the first problem with the map.
func (m *Map) Validate() error {
	if m.Version != MapVersion {
		return fmt.Errorf("cluster: shard map version %d, want %d", m.Version, MapVersion)
	}
	if m.Generation < 0 {
		return fmt.Errorf("cluster: negative shard map generation %d", m.Generation)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: shard map has no shards")
	}
	if m.Level < -20 || m.Level > 20 {
		return fmt.Errorf("cluster: shard level %d outside [-20, 20]", m.Level)
	}
	if m.Replicas < 0 {
		return fmt.Errorf("cluster: negative replica count %d", m.Replicas)
	}
	if m.Replicas > len(m.Shards) {
		return fmt.Errorf("cluster: replica count %d exceeds %d shards", m.Replicas, len(m.Shards))
	}
	if e := m.EdgeM(); e <= 0 || math.IsNaN(e) || math.IsInf(e, 0) {
		return fmt.Errorf("cluster: invalid shard cell edge %v m", e)
	}
	seen := make(map[string]bool, len(m.Shards))
	for i, sh := range m.Shards {
		if sh.ID == "" {
			return fmt.Errorf("cluster: shard %d has an empty id", i)
		}
		if seen[sh.ID] {
			return fmt.Errorf("cluster: duplicate shard id %q", sh.ID)
		}
		seen[sh.ID] = true
		u, err := url.Parse(sh.Addr)
		if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
			return fmt.Errorf("cluster: shard %q has invalid addr %q (want http(s)://host[:port])", sh.ID, sh.Addr)
		}
	}
	return nil
}

// ShardIDs returns the roster's ids in sorted order.
func (m *Map) ShardIDs() []string {
	ids := make([]string, len(m.Shards))
	for i, sh := range m.Shards {
		ids[i] = sh.ID
	}
	sort.Strings(ids)
	return ids
}

// ParseMap decodes and validates a shard map from its JSON serialization.
func ParseMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("cluster: parsing shard map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadMap reads and validates a shard map file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading shard map: %w", err)
	}
	m, err := ParseMap(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return m, nil
}

// keyer is the evaluated geometric half of a map: the fixed projection and
// the coarse hex grid whose cells are the shard keys.  It is immutable.
type keyer struct {
	proj *geo.Projection
	g    grid.Grid
}

func newKeyer(m *Map) keyer {
	return keyer{
		proj: geo.NewProjection(m.OriginLat, m.OriginLng),
		g:    grid.NewHex(m.EdgeM()),
	}
}

// cellFor returns the shard cell (coarse hex token) containing p.
func (k keyer) cellFor(p geo.Point) grid.Cell {
	return k.g.CellAt(k.proj.ToXY(p))
}

// anchor reduces a trajectory to its routing point: the center of its
// lat/lng bounding box.  Using the MBR center (not the first point) keeps the
// shard decision stable under sparsification — the paper's model lookup keys
// off the MBR for the same reason.
func anchor(points []geo.Point) (geo.Point, bool) {
	if len(points) == 0 {
		return geo.Point{}, false
	}
	minLat, maxLat := points[0].Lat, points[0].Lat
	minLng, maxLng := points[0].Lng, points[0].Lng
	for _, p := range points[1:] {
		minLat, maxLat = math.Min(minLat, p.Lat), math.Max(maxLat, p.Lat)
		minLng, maxLng = math.Min(minLng, p.Lng), math.Max(maxLng, p.Lng)
	}
	return geo.Point{Lat: (minLat + maxLat) / 2, Lng: (minLng + maxLng) / 2}, true
}

// rendezvousRank returns the top-n shard ids for a cell in descending
// hash(shardID, cell) score (highest-random-weight hashing): rank 0 is the
// primary, ranks 1..n-1 are its replicas, and n = 1 is the single owner.
// Ties break toward the lexicographically smaller id, so the ranking is
// independent of roster order.  The decisive property over modulo hashing is
// minimal disruption, element-wise: removing a shard deletes it from every
// ranking it appears in and shifts the tail up one, leaving all other
// relative orders untouched — so a node failure promotes exactly the
// next-ranked replica per cell, and a shard-map rollout shifts load without a
// global reshuffle (or invalidating every peer's warm model cache).
func rendezvousRank(ids []string, c grid.Cell, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	var cellBytes [8]byte
	binary.BigEndian.PutUint64(cellBytes[:], uint64(c))
	type scored struct {
		id    string
		score uint64
	}
	all := make([]scored, len(ids))
	for i, id := range ids {
		all[i] = scored{id: id, score: rendezvousScore(id, cellBytes)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].id
	}
	return out
}

// rendezvousScore hashes (shardID, cell) to the shard's weight for that cell.
func rendezvousScore(id string, cellBytes [8]byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write(cellBytes[:])
	// Raw FNV-1a is too linear in its final input bytes: for consecutive
	// cell ids the per-shard score order barely changes, so one shard
	// would win long runs of adjacent cells.  A murmur3-style finalizer
	// restores avalanche, making the winner effectively uniform per cell.
	return mix64(h.Sum64())
}

// mix64 is the murmur3/splitmix64 avalanche finalizer: every input bit flips
// every output bit with ~50% probability, which rendezvous scoring needs for
// spatially adjacent (numerically consecutive) cells to spread across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
