package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"kamel/internal/geo"
	"kamel/internal/trajio"
)

// request is one generated input with what the checker needs to judge the
// answer: the dense ground truth it was cut from and the gaps it contains.
type request struct {
	ID    string
	In    geo.Trajectory // sparse input handed to the program
	Truth geo.Trajectory // dense points between In's first and last point
	Gaps  int            // consecutive input pairs further apart than max_gap
	Body  []byte         // /v1/impute JSON body of In
}

func readTrips(path string) ([]geo.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trajio.Read(f)
}

// countGaps mirrors the program's own segment test (planar distance between
// consecutive input points above max_gap), so Stats.Segments can be checked
// against what the generator created.
func countGaps(proj *geo.Projection, tr geo.Trajectory, maxGapM float64) int {
	n := 0
	for i := 0; i+1 < len(tr.Points); i++ {
		if proj.ToXY(tr.Points[i]).Dist(proj.ToXY(tr.Points[i+1])) > maxGapM {
			n++
		}
	}
	return n
}

func wireBody(tr geo.Trajectory) []byte {
	pts := make([][3]float64, len(tr.Points))
	for i, p := range tr.Points {
		pts[i] = [3]float64{p.Lat, p.Lng, p.T}
	}
	b, err := json.Marshal(map[string]interface{}{"id": tr.ID, "points": pts})
	if err != nil {
		panic(err) // finite floats and a string always marshal
	}
	return b
}

// windowRequests cuts every pool trip into requests by the paper's protocol —
// keep a point every sparseM metres of driven path — with at most gaps
// consecutive gaps (gaps+1 sparse points) per request: short corrections
// rather than whole trips, so that several passes over the pool fit a window.
// With gaps = 1 these are the single-gap requests the cold workload orders so
// that consecutive requests need different models.
//
// The pool is the same for every seed — a seed decides the order and timing
// of requests, not their content — so that quality and work per request do
// not vary from run to run and a difference between two commits is the
// commits'.
func windowRequests(trips []geo.Trajectory, sparseM float64, gaps int, proj *geo.Projection, maxGapM float64) []request {
	var out []request
	for _, truth := range trips {
		idx := truth.SparsifyIndices(sparseM)
		for g := 0; g+1 < len(idx); g += gaps {
			end := g + gaps
			if end > len(idx)-1 {
				end = len(idx) - 1
			}
			in := geo.Trajectory{ID: fmt.Sprintf("%s-w%02d", truth.ID, g/gaps)}
			for _, i := range idx[g : end+1] {
				in.Points = append(in.Points, truth.Points[i])
			}
			n := countGaps(proj, in, maxGapM)
			if n == 0 {
				continue // a short tail piece: nothing to impute
			}
			out = append(out, request{
				ID: in.ID, In: in, Gaps: n, Body: wireBody(in),
				Truth: geo.Trajectory{ID: in.ID, Points: truth.Points[idx[g] : idx[end]+1]},
			})
		}
	}
	return out
}

// zipfCounts apportions n draws over the pool by a Zipf(s) law on the trips'
// origin cells (500 m squares, ranked by how many pool trips start there,
// then by position): a few origins are hot, as in real request traffic.  The
// apportionment is by largest remainder, so the mix is the same for every
// seed and only order and timing vary — which keeps run-to-run spread down
// to what the program itself contributes.
func zipfCounts(pool []request, proj *geo.Projection, n int, s float64) []int {
	type cell struct{ x, y int }
	members := map[cell][]int{}
	for i, r := range pool {
		p := proj.ToXY(r.Truth.Points[0])
		c := cell{int(math.Floor(p.X / 500)), int(math.Floor(p.Y / 500))}
		members[c] = append(members[c], i)
	}
	cells := make([]cell, 0, len(members))
	for c := range members {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if len(members[a]) != len(members[b]) {
			return len(members[a]) > len(members[b])
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.y < b.y
	})
	weight := make([]float64, len(pool))
	var total float64
	for rank, c := range cells {
		w := 1 / math.Pow(float64(rank+1), s)
		for _, i := range members[c] {
			weight[i] = w / float64(len(members[c]))
		}
		total += w
	}
	counts := make([]int, len(pool))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(pool))
	given := 0
	for i, w := range weight {
		exact := float64(n) * w / total
		counts[i] = int(exact)
		given += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for k := 0; given < n; k, given = k+1, given+1 {
		counts[rems[k%len(rems)].i]++
	}
	return counts
}

// shuffledDraws expands per-request counts into a seed-shuffled order.
func shuffledDraws(counts []int, rng *rand.Rand) []int {
	var out []int
	for i, c := range counts {
		for ; c > 0; c-- {
			out = append(out, i)
		}
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// poissonSchedule returns n due times inside the window with exponentially
// distributed gaps between them, as independent users produce.  The gaps are
// the n mid-quantiles of the exponential distribution in a seed-shuffled
// order, scaled to fill the window: every seed offers the same load with the
// same number of near-coincident arrivals, in another order.  Independent
// draws would make the share of requests that meet another one in service —
// which moves the latency tail more than most code changes — a matter of luck.
func poissonSchedule(n int, window time.Duration, rng *rand.Rand) []time.Duration {
	gaps := make([]float64, n)
	var total float64
	for k := range gaps {
		gaps[k] = -math.Log(1 - (float64(k)+0.5)/float64(n))
		total += gaps[k]
	}
	rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	due := make([]time.Duration, n)
	var at float64
	for i, g := range gaps {
		due[i] = time.Duration(at / total * float64(window))
		at += g
	}
	return due
}

// cycler hands out pool indices forever: each pass over the pool is a fresh
// seed-derived permutation, so every request is asked equally often.
type cycler struct {
	rng  *rand.Rand
	perm []int
	pos  int
}

func newCycler(n int, rng *rand.Rand) *cycler {
	return &cycler{rng: rng, perm: rng.Perm(n), pos: 0}
}

func (c *cycler) next() int {
	if c.pos == len(c.perm) {
		c.perm = c.rng.Perm(len(c.perm))
		c.pos = 0
	}
	i := c.perm[c.pos]
	c.pos++
	return i
}
