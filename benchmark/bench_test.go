package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kamel/internal/geo"
	"kamel/internal/grid"
	"kamel/internal/tokenizer"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		got  float64
	}{
		{20, 0.95, 0.5},   // nothing has ten samples beyond it
		{40, 0.95, 0.75},  // 10 beyond p75
		{99, 0.95, 0.75},  // 9.9 beyond p90: not enough
		{100, 0.95, 0.90}, // exactly ten beyond p90
		{199, 0.95, 0.90},
		{200, 0.95, 0.95},
		{5000, 0.95, 0.95}, // capped at what was asked for
		{5000, 0.99, 0.99},
		{200, 0.90, 0.90},
	} {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
}

func TestQuantileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(v, 0.5); q != 5 {
		t.Errorf("median by nearest rank = %g, want 5", q)
	}
	if q := quantile(v, 0.9); q != 9 {
		t.Errorf("p90 by nearest rank = %g, want 9", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
	q1, q2, q3 = quartiles([]float64{3, 1})
	if q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles of two = %g %g %g, want 0.5 2 3.5", q1, q2, q3)
	}
}

const cannedBefore = `# HELP kamel_stage_duration_seconds Per-stage pipeline latency, labelled by span name.
# TYPE kamel_stage_duration_seconds histogram
kamel_stage_duration_seconds_bucket{stage="impute.predict",le="0.005"} 90
kamel_stage_duration_seconds_bucket{stage="impute.predict",le="+Inf"} 100
# exemplar kamel_stage_duration_seconds_bucket{stage="impute.predict",le="0.005"} trace_id=abc value=0.004 ts=1
kamel_stage_duration_seconds_sum{stage="impute.predict"} 0.5
kamel_stage_duration_seconds_count{stage="impute.predict"} 100
kamel_stage_duration_seconds_sum{stage="impute.beam"} 2
kamel_stage_duration_seconds_count{stage="impute.beam"} 10
# TYPE kamel_admission_shed_total counter
kamel_admission_shed_total{reason="limit"} 1
kamel_admission_shed_total{reason="quota"} 2
kamel_served_segments_total 40
kamel_build_info{version="dev \"x\"",tokenizer="fixed",replicas="0"} 1
`

const cannedAfter = `kamel_stage_duration_seconds_sum{stage="impute.predict"} 1.25
kamel_stage_duration_seconds_count{stage="impute.predict"} 250
kamel_stage_duration_seconds_sum{stage="impute.beam"} 5
kamel_stage_duration_seconds_count{stage="impute.beam"} 25
kamel_admission_shed_total{reason="limit"} 4
kamel_admission_shed_total{reason="quota"} 2
kamel_served_segments_total 100
`

func TestPromDelta(t *testing.T) {
	from, err := parseProm(strings.NewReader(cannedBefore))
	if err != nil {
		t.Fatal(err)
	}
	to, err := parseProm(strings.NewReader(cannedAfter))
	if err != nil {
		t.Fatal(err)
	}
	if got := from.sum("kamel_build_info", "version", `dev "x"`); got != 1 {
		t.Errorf("escaped label value not parsed: got %g", got)
	}
	if got := from.sum("kamel_stage_duration_seconds_bucket"); got != 190 {
		t.Errorf("bucket lines (and only those, not the exemplar comment) should parse: %g", got)
	}
	d := promDelta{from, to}
	if s, n := d.stage("impute.predict"); s != 0.75 || n != 150 {
		t.Errorf("predict delta = %g s over %g, want 0.75 over 150", s, n)
	}
	if got := d.of("kamel_admission_shed_total"); got != 3 {
		t.Errorf("shed delta summed over reasons = %g, want 3", got)
	}
	if got := d.of("kamel_admission_shed_total", "reason", "quota"); got != 0 {
		t.Errorf("quota shed delta = %g, want 0", got)
	}
	if got := d.of("kamel_served_segments_total"); got != 60 {
		t.Errorf("segments delta = %g, want 60", got)
	}
	if _, err := parseProm(strings.NewReader("kamel_x{a=\"b\" 1\n")); err == nil {
		t.Error("unterminated label set should not parse")
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Name: "wait", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "http", Start: ms(20), End: ms(50)},  // overlaps wait: counted once
		{ID: 4, Parent: 1, Name: "http", Start: ms(60), End: ms(120)}, // runs past the parent: clipped
		{ID: 5, Parent: 3, Name: "first_byte", Start: ms(20), End: ms(45)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(20), 2: ms(20), 3: ms(5), 4: ms(60), 5: ms(25)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	if got := selfByName(spans)["http"]; got != ms(65) {
		t.Errorf("self time of http spans = %v, want 65ms", got)
	}
}

func TestNamesAndManifest(t *testing.T) {
	re := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !re.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEndDefs {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEndDefs {
				if o.Bound > d.Bound {
					t.Errorf("setup_s should carry the largest bound, %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayerDefs {
		check(d.Name)
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", strings.Repeat("x", 65)} {
		if re.MatchString(bad) {
			t.Errorf("the name pattern should refuse %q", bad)
		}
	}

	// BENCHMARK.json is `-manifest` output, byte for byte in meaning.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated interface{}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with `-manifest`")
	}
}

// The base repository must not outlive the program that trained it.
func TestBaseNameFollowsTheProgram(t *testing.T) {
	dir := t.TempDir()
	name := func(content string) string {
		bin := dir + "/kamel"
		if err := os.WriteFile(bin, []byte(content), 0o755); err != nil {
			t.Fatal(err)
		}
		n, err := baseName(bin)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a, b, again := name("one build"), name("another build"), name("one build")
	if a == b {
		t.Errorf("two different programs share the base %s", a)
	}
	if a != again {
		t.Errorf("the same program got two bases: %s and %s", a, again)
	}
	if !regexp.MustCompile(`^base-[A-Za-z0-9_.-]+$`).MatchString(a) {
		t.Errorf("base name %q is not a plain directory name", a)
	}
}

// syntheticTrips drives straight east at 10 m/s from slightly different
// starts: enough structure for the generator, no trained system needed.
func syntheticTrips(n int) ([]geo.Trajectory, *geo.Projection) {
	proj := geo.NewProjection(41.15, -8.61)
	trips := make([]geo.Trajectory, n)
	for i := range trips {
		trips[i].ID = fmt.Sprintf("trip-%02d", i)
		for s := 0; s < 300; s++ {
			p := proj.ToLatLng(geo.XY{X: float64(10 * s), Y: float64(137 * i)})
			p.T = float64(1000*i + s)
			trips[i].Points = append(trips[i].Points, p)
		}
	}
	return trips, proj
}

// renderSchedule is everything a seed decides for an open-loop run.
func renderSchedule(seed int64) []byte {
	trips, proj := syntheticTrips(12)
	rng := rand.New(rand.NewSource(seed))
	pool := windowRequests(trips, 400, 3, proj, 100)
	order := shuffledDraws(zipfCounts(pool, proj, 90, 1.2), rng)
	due := poissonSchedule(len(order), 6*time.Second, rng)
	var buf bytes.Buffer
	for i, idx := range order {
		fmt.Fprintf(&buf, "%d %s\n", due[i], pool[idx].Body)
	}
	return buf.Bytes()
}

func TestSeedDeterminism(t *testing.T) {
	a, b, c := renderSchedule(7), renderSchedule(7), renderSchedule(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed must give a byte-identical request schedule")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds must give different schedules")
	}
	if n := bytes.Count(a, []byte("\n")); n != 90 {
		t.Errorf("schedule has %d requests, want 90", n)
	}
}

func TestGeneratorShapes(t *testing.T) {
	trips, proj := syntheticTrips(12)
	rng := rand.New(rand.NewSource(3))
	whole := 0
	for _, r := range windowRequests(trips, 400, 3, proj, 100) {
		if r.Gaps != len(r.In.Points)-1 || r.Gaps < 1 || r.Gaps > 3 {
			t.Fatalf("%s: %d gaps for %d sparse points", r.ID, r.Gaps, len(r.In.Points))
		}
		whole += r.Gaps
		if r.Truth.Points[0] != r.In.Points[0] || r.Truth.Points[len(r.Truth.Points)-1] != r.In.Points[len(r.In.Points)-1] {
			t.Fatalf("%s: truth and input do not share endpoints", r.ID)
		}
	}
	if want := 12 * 8; whole != want { // 2990 m of trip cut every 400 m
		t.Fatalf("windows cover %d gaps, want %d: pieces must tile each trip", whole, want)
	}
	for _, r := range windowRequests(trips, 250, 1, proj, 100) {
		if len(r.In.Points) != 2 || r.Gaps != 1 || len(r.Truth.Points) < 3 {
			t.Fatalf("%s: not a single gap with its truth: %d points, %d gaps, %d truth", r.ID, len(r.In.Points), r.Gaps, len(r.Truth.Points))
		}
	}
	pool := windowRequests(trips, 400, 3, proj, 100)
	counts := zipfCounts(pool, proj, 1000, 1.2)
	total, most, least := 0, 0, 1000
	for _, c := range counts {
		total += c
		if c > most {
			most = c
		}
		if c < least {
			least = c
		}
	}
	if total != 1000 || most < 2*least {
		t.Errorf("zipf counts sum to %d (want 1000), hottest %d vs coldest %d (want a clear skew)", total, most, least)
	}
	c := newCycler(5, rng)
	seen := map[int]int{}
	for i := 0; i < 15; i++ {
		seen[c.next()]++
	}
	for i := 0; i < 5; i++ {
		if seen[i] != 3 {
			t.Errorf("cycler gave request %d %d times in three passes, want 3", i, seen[i])
		}
	}
}

func TestVerify(t *testing.T) {
	proj := geo.NewProjection(41.15, -8.61)
	tok := tokenizer.NewFixed(grid.NewHex(75))
	chk := newChecker(proj, tok, 100)
	at := func(x, t float64) geo.Point {
		p := proj.ToLatLng(geo.XY{X: x, Y: 0})
		p.T = t
		return p
	}
	req := &request{ID: "r", In: geo.Trajectory{Points: []geo.Point{at(0, 0), at(400, 40), at(450, 45)}}, Gaps: 1}
	good := answer{Segments: 1, Out: geo.Trajectory{Points: []geo.Point{at(0, 0), at(130, 13), at(260, 26), at(400, 40), at(450, 45)}}}
	if err := chk.verify(req, good); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	mutate := func(f func(a *answer)) answer {
		a := answer{Segments: good.Segments, Failures: good.Failures}
		a.Out.Points = append([]geo.Point(nil), good.Out.Points...)
		f(&a)
		return a
	}
	for name, bad := range map[string]answer{
		"input point dropped": mutate(func(a *answer) { a.Out.Points = append(a.Out.Points[:3], a.Out.Points[4:]...) }),
		"endpoint moved":      mutate(func(a *answer) { a.Out.Points[0] = at(1, 0) }),
		"time backwards":      mutate(func(a *answer) { a.Out.Points[2].T = 5 }),
		"hole left open":      mutate(func(a *answer) { a.Out.Points = append(a.Out.Points[:1], a.Out.Points[3:]...) }),
		"gap miscounted":      mutate(func(a *answer) { a.Segments = 2 }),
		"fallbacks > gaps":    mutate(func(a *answer) { a.Failures = 2 }),
	} {
		if err := chk.verify(req, bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := sameAnswer("r", good, good); err != nil {
		t.Errorf("an answer differs from itself: %v", err)
	}
	if err := sameAnswer("r", good, mutate(func(a *answer) { a.Out.Points[1].Lat += 1e-12 })); err == nil {
		t.Error("parity must be exact")
	}
}

func TestWholePasses(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64, cpuS float64) passEnd {
		return passEnd{t0.Add(time.Duration(s * float64(time.Second))), time.Duration(cpuS * float64(time.Second))}
	}
	// Five passes of identical work; the third was disturbed.
	run := closedRun{start: t0, passLen: 10, issued: 57, ends: []passEnd{at(2, 1), at(4, 2), at(9, 3.2), at(11, 4.2), at(13, 5.2)}, total: at(14.5, 6)}
	run.upTo(t0.Add(15 * time.Second))
	if run.passes != 5 || run.measured != 50 || run.interval != 13*time.Second {
		t.Errorf("whole window: %d passes, %d requests, %v", run.passes, run.measured, run.interval)
	}
	if run.passWall != 2*time.Second || run.passCPU != time.Second {
		t.Errorf("median pass = %v wall, %v cpu; want 2s and 1s whatever the disturbed pass took", run.passWall, run.passCPU)
	}
	run.upTo(t0.Add(10 * time.Second)) // e.g. the trained batch became visible here
	if run.passes != 3 || run.measured != 30 || run.interval != 9*time.Second {
		t.Errorf("cut at 10 s: %d passes, %d requests, %v", run.passes, run.measured, run.interval)
	}
	run.upTo(t0.Add(time.Second)) // not one pass: everything issued counts
	if run.passes != 0 || run.measured != 57 || run.passWall != 14500*time.Millisecond || run.passCPU != 6*time.Second {
		t.Errorf("no whole pass: %d passes, %d requests, %v wall, %v cpu", run.passes, run.measured, run.passWall, run.passCPU)
	}

	// The loop itself: every handed-out request is answered exactly once,
	// passes are counted whole.
	var mu sync.Mutex
	seen := map[int]int{}
	n := 0
	live := closedLoop(3, 60*time.Millisecond, 7, func() int { n++; return n % 7 }, func() time.Duration { return 0 }, nil, func(seq, idx int) {
		time.Sleep(time.Millisecond)
		mu.Lock()
		seen[seq]++
		mu.Unlock()
	})
	if live.issued != len(seen) || live.measured%7 != 0 || live.measured > live.issued || live.passes < 1 {
		t.Errorf("loop: issued %d, answered %d, measured %d in %d passes", live.issued, len(seen), live.measured, live.passes)
	}
	for seq, c := range seen {
		if c != 1 {
			t.Errorf("request %d answered %d times", seq, c)
		}
	}
}
