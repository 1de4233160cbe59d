package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kamel/internal/core"
	"kamel/internal/geo"
	"kamel/internal/metrics"
)

// Frozen workload parameters.  The open-loop rates were calibrated once on the
// seed commit (2 cores) against the measured closed-loop saturation of the
// serving mix and are absolute from then on; see README.md.
const (
	serveSparseM = 350 // interactive and ingest send the same request mix:
	serveGaps    = 3   // corrections of at most three gaps cut at 350 m
	bulkSparseM  = 900 // bulk: pieces of at most ...
	bulkGaps     = 3   // ... three long gaps, so that several passes fit a window
	coldSparseM  = 250
	coldPerModel = 60 // gaps a cold pass asks of each model
	// Open-loop rates of the traced interactive run: 40 % and 85 % of what two
	// closed-loop connections get through (117 req/s on the seed commit).
	interactiveRateMid  = 45.0
	interactiveRateHigh = 100.0
	// ingestStepsPerSecond sizes the server's -steps so that rebuilding the
	// models for the ingest batch outlasts the window (by a fifth on the seed
	// commit): every measured request is answered while a model trains.
	ingestStepsPerSecond = 1.9
	zipfS                = 1.2 // skew of request origins
	warmRequests         = 20  // sequential warm-up requests, also the parity sample
	evalDeltaM           = 50  // recall threshold δ
)

// outcome is what one workload run measured.
type outcome struct {
	window    time.Duration // the interval the measured requests took
	passes    int           // whole passes over the request multiset it holds; 0: less than one
	passWall  time.Duration // median duration of those passes (window, if less than one)
	passCPU   time.Duration // median CPU time of the process under test per pass
	latMS     []float64     // one per measured request
	gaps      int
	fallbacks int
	recall    metrics.Accumulator
	attempted int
	failed    int
	problems  []string // correctness violations
	rssMB     float64  // median resident set of the process under test
	rssPeakMB float64  // its high-water mark
	// trainVisible is ingest's POST /v1/train sent → batch served; 0 on the
	// workloads that do not train while they serve.
	trainVisible time.Duration
	layer        map[string]float64
}

func (o *outcome) took(run closedRun) {
	o.window, o.passes, o.passWall, o.passCPU = run.interval, run.passes, run.passWall, run.passCPU
}

func (o *outcome) problem(err error) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	}
}

// scored is what the ledger keeps of one verified answer.
type scored struct {
	lat             time.Duration
	gaps, fallbacks int
	rp              metrics.RecallPrecision
}

func scoreAnswer(chk *checker, req *request, a answer, lat time.Duration) scored {
	return scored{lat, a.Segments, a.Failures, metrics.Evaluate(chk.proj, req.Truth, a.Out, chk.maxGapM, evalDeltaM)}
}

// add folds one scored answer into the measured sample.
func (o *outcome) add(s scored) {
	o.latMS = append(o.latMS, float64(s.lat)/float64(time.Millisecond))
	o.gaps += s.gaps
	o.fallbacks += s.fallbacks
	o.recall.Add(s.rp)
}

// openSystem opens a model repository in process the way `kamel impute` and
// `kamel serve` do (cmd/kamel's systemConfig), so the two surfaces answer
// alike.
func openSystem(work string, cacheBytes int64) (*core.System, error) {
	cfg := core.DefaultConfig(work)
	cfg.PyramidH, cfg.PyramidL, cfg.ThresholdK = 1, 2, 300
	cfg.ModelCacheBytes = cacheBytes
	sys, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.LoadModels(); err != nil {
		sys.Close()
		return nil, err
	}
	return sys, nil
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func localScrape(sys *core.System) (promSnapshot, error) {
	var buf bytes.Buffer
	if err := sys.Obs().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

func cores() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// runClosed is the closed-loop in-process workload: each worker calls
// ImputeContext (what ImputeStream's workers do, kept apart so each call can
// be timed) and takes its next request only when the previous one returned.
// Every answer is checked; the whole passes that fit the window are measured.
func runClosed(e *env, sys *core.System, chk *checker, pool []request, passLen int, next func() int, workers int, window time.Duration) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var from promSnapshot
	var ms0 runtime.MemStats
	var heapPeak uint64
	stopHeap := func() {}
	if e.tr != nil {
		var err error
		if from, err = localScrape(sys); err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms0)
		stopHeap = every(time.Second, func() {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > heapPeak {
				heapPeak = ms.HeapInuse
			}
		})
	}

	type call struct {
		seq int
		scored
	}
	var mu sync.Mutex // guards calls and o
	var calls []call
	rss := sampleRSS(os.Getpid())
	run := closedLoop(workers, window, passLen, next, selfCPU, nil, func(seq, idx int) {
		req := &pool[idx]
		t0 := time.Now()
		dense, st, err := sys.ImputeContext(context.Background(), req.In)
		t1 := time.Now()
		e.tr.add("impute", seq, 0, t0, t1)
		a := answer{Out: dense, Segments: st.Segments, Failures: st.Failures}
		if err == nil {
			err = chk.verify(req, a)
		}
		var sc scored
		if err == nil {
			sc = scoreAnswer(chk, req, a, t1.Sub(t0))
		}
		mu.Lock()
		defer mu.Unlock()
		o.attempted++
		if err != nil {
			o.problem(err)
			return
		}
		calls = append(calls, call{seq, sc})
	})
	var err error
	if o.rssMB, o.rssPeakMB, err = rss(); err != nil {
		return nil, err
	}
	o.took(run)
	var callMS []float64 // every call the counters saw, measured or not
	for _, c := range calls {
		callMS = append(callMS, float64(c.lat)/float64(time.Millisecond))
		if c.seq < run.measured {
			o.add(c.scored)
		}
	}

	if e.tr != nil {
		stopHeap()
		to, err := localScrape(sys)
		if err != nil {
			return nil, err
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		stages := stageLayers(o.layer, promDelta{from, to}, time.Since(run.start))
		o.layer["runtime.gc_pause_ms_total"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		o.layer["runtime.heap_mb_peak"] = float64(heapPeak) / (1 << 20)
		o.layer["runtime.allocs_per_gap"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), promDelta{from, to}.of("kamel_served_segments_total"))
		o.layer["ledger.unattributed_share"] = unattributed(stages, 0, callMS)
	}
	return o, nil
}

// stageLayers derives the per-layer ledger rows that come from differences
// of the program's own exported sums and counts over the window.
func stageLayers(layer map[string]float64, d promDelta, wall time.Duration) (stageSeconds float64) {
	gaps := d.of("kamel_served_segments_total")
	predS, predN := d.stage("impute.predict")
	consS, consN := d.stage("impute.constraints")
	beamS, _ := d.stage("impute.beam")
	detokS, detokN := d.stage("impute.detok")
	lookS, lookN := d.stage("impute.lookup")
	pageS, _ := d.stage("impute.page_in")
	tokS, _ := d.stage("impute.tokenize")
	dispS, _ := d.stage("batcher.dispatch")
	items := d.of("kamel_batcher_items_total")

	layer["batcher.avg_batch"] = ratio(items, d.of("kamel_batcher_batches_total"))
	layer["batcher.queue_wait_ms_mean"] = 1e3 * ratio(d.of("kamel_batcher_queue_wait_seconds_sum"), d.of("kamel_batcher_queue_wait_seconds_count"))
	overflow := d.of("kamel_batcher_overflow_total")
	layer["batcher.overflow_share"] = ratio(overflow, items+overflow)
	layer["impute.predict_calls_per_gap"] = ratio(predN, gaps)
	layer["impute.queries_per_gap"] = ratio(items, gaps)
	layer["impute.beam_ms_per_gap"] = 1e3 * ratio(beamS, gaps)
	layer["impute.beam_self_ms_per_gap"] = 1e3 * ratio(beamS-predS-consS, gaps)
	layer["bert.dispatch_busy_share"] = dispS / (wall.Seconds() * float64(runtime.NumCPU()))
	layer["constraints.filter_us_per_call"] = 1e6 * ratio(consS, consN)
	layer["detok.us_per_gap"] = 1e6 * ratio(detokS, detokN)
	layer["pyramid.lookup_us_per_gap"] = 1e6 * ratio(lookS, lookN)
	hits, misses := d.of("kamel_modelcache_hits_total"), d.of("kamel_modelcache_misses_total")
	layer["modelcache.hit_ratio"] = ratio(hits, hits+misses)
	layer["modelcache.load_ms_mean"] = 1e3 * ratio(d.of("kamel_modelcache_load_seconds_sum"), d.of("kamel_modelcache_load_seconds_count"))
	layer["modelcache.evictions"] = d.of("kamel_modelcache_evictions_total")
	layer["modelcache.page_in_ms_per_gap"] = 1e3 * ratio(pageS, gaps)
	// What the five top-level stages account for: unattributed() holds it
	// against the requests' wall time.
	return tokS + lookS + pageS + beamS + detokS
}

// unattributed is the share of the requests' wall time that no layer of the
// ledger explains: 1 − (top-level stage time + the HTTP overhead attributed
// to serve) / request wall.  It is the remainder a waterfall has to explain.
func unattributed(stageSeconds, httpOverheadS float64, latMS []float64) float64 {
	var wall float64
	for _, l := range latMS {
		wall += l / 1e3
	}
	if wall == 0 {
		return 0
	}
	return 1 - (stageSeconds+httpOverheadS)/wall
}

// gapsByModel cuts the pool trips into single-gap requests and groups them by
// the model file the pyramid resolves them to.
func gapsByModel(sys *core.System, chk *checker, trips []geo.Trajectory) (pool []request, files []string, buckets map[string][]int) {
	pool = windowRequests(trips, coldSparseM, 1, chk.proj, chk.maxGapM)
	ix := sys.ServingIndex()
	buckets = map[string][]int{}
	for i, r := range pool {
		mbr := geo.EmptyRect().ExtendXY(chk.proj.ToXY(r.In.Points[0])).ExtendXY(chk.proj.ToXY(r.In.Points[1]))
		if ref, _, _, ok := ix.LookupBest(mbr); ok {
			buckets[ref.File] = append(buckets[ref.File], i)
		}
	}
	for f := range buckets {
		files = append(files, f)
	}
	sort.Strings(files)
	return pool, files, buckets
}

// pageIn asks sys for one gap of every model, so that each is resident before
// a warm-cache window opens.  It returns the largest growth of the cache one
// model caused.
func pageIn(sys *core.System, pool []request, files []string, buckets map[string][]int) (largest int64, err error) {
	for _, f := range files {
		before := sys.SystemStats().ModelCacheBytes
		if _, _, err := sys.ImputeContext(context.Background(), pool[buckets[f][0]].In); err != nil {
			return 0, err
		}
		if d := sys.SystemStats().ModelCacheBytes - before; d > largest {
			largest = d
		}
	}
	return largest, nil
}

// bulk: the paper's offline mode.
func runBulk(e *env, sys *core.System, chk *checker, trips []geo.Trajectory, rng *rand.Rand, window time.Duration) (*outcome, error) {
	// Every other pool trip: a pass takes under three seconds on the seed
	// commit, so that a window holds five of them.
	var half []geo.Trajectory
	for i := 0; i < len(trips); i += 2 {
		half = append(half, trips[i])
	}
	pool := windowRequests(half, bulkSparseM, bulkGaps, chk.proj, chk.maxGapM)
	gaps, files, buckets := gapsByModel(sys, chk, trips)
	if _, err := pageIn(sys, gaps, files, buckets); err != nil {
		return nil, err
	}
	cyc := newCycler(len(pool), rng)
	return runClosed(e, sys, chk, pool, len(pool), cyc.next, cores(), window)
}

// cold: the model cache holds one model and every request needs another one.
func runCold(e *env, sizing *core.System, chk *checker, trips []geo.Trajectory, rng *rand.Rand, window time.Duration) (*outcome, error) {
	pool, files, buckets := gapsByModel(sizing, chk, trips)
	if len(files) < 2 {
		return nil, fmt.Errorf("cold: gaps resolve to %d model(s); need at least two to force misses", len(files))
	}
	// The unbounded sizing system tells the largest resident footprint of a
	// model; the budget is 1.2 × that: one model fits, two never do.
	largest, err := pageIn(sizing, pool, files, buckets)
	if err != nil {
		return nil, err
	}
	if largest <= 0 {
		return nil, fmt.Errorf("cold: models are memory-resident, nothing to page in")
	}
	sys, err := openSystem(e.baseWork(), largest*12/10)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	// A pass asks every model for coldPerModel of its gaps (the first ones in
	// data order; a model with fewer repeats some), round-robin over the
	// models so that consecutive requests never share one, each model's gaps
	// in a seed-shuffled order.
	cyclers := make([]*cycler, len(files))
	for i, f := range files {
		fill := make([]int, coldPerModel)
		for j := range fill {
			fill[j] = buckets[f][j%len(buckets[f])]
		}
		buckets[f] = fill
		cyclers[i] = newCycler(coldPerModel, rng)
	}
	turn := 0
	next := func() int {
		b := turn % len(files)
		turn++
		return buckets[files[b]][cyclers[b].next()]
	}
	return runClosed(e, sys, chk, pool, coldPerModel*len(files), next, 1, window)
}

// httpScore folds the generator's results into the outcome; only the first
// measured of them enter the latency, quality and rate sample, the rest are
// still checked.
func (o *outcome) httpScore(chk *checker, pool []request, order []int, results []httpResult, measured int) (answers []answer) {
	answers = make([]answer, len(results))
	for i := range results {
		r, req := &results[i], &pool[order[i]]
		o.attempted++
		var a answer
		err := r.err
		if err == nil && r.status != 200 {
			err = fmt.Errorf("%s: HTTP %d: %.160s", req.ID, r.status, r.body)
		}
		if err == nil {
			a, err = decodeAnswer(r.body)
		}
		if err == nil {
			err = chk.verify(req, a)
		}
		if err != nil {
			o.problem(err)
			if i < measured {
				o.latMS = append(o.latMS, float64(clientTimeout)/float64(time.Millisecond))
			}
			continue
		}
		answers[i] = a
		if i < measured {
			o.add(scoreAnswer(chk, req, a, r.done.Sub(r.due)))
		}
	}
	return answers
}

// warmAndParity sends the warm-up requests one after another and holds the
// HTTP answers against in-process ImputeContext on the same input.
func warmAndParity(o *outcome, srv *server, local *core.System, chk *checker, pool []request) {
	n := warmRequests
	if n > len(pool) {
		n = len(pool)
	}
	order := make([]int, n)
	results := make([]httpResult, n)
	for i := range order {
		order[i] = i
		srv.post("/v1/impute", pool[i].Body, "bench-warm", &results[i], false)
		results[i].due = results[i].sent
	}
	answers := o.httpScore(chk, pool, order, results, 0)
	for i, a := range answers {
		if a.Out.Points == nil {
			continue // already reported by httpScore
		}
		o.attempted++
		dense, st, err := local.ImputeContext(context.Background(), pool[i].In)
		if err == nil {
			err = sameAnswer(pool[i].ID, a, answer{Out: dense, Segments: st.Segments, Failures: st.Failures})
		}
		if err != nil {
			o.problem(err)
		}
	}
}

// generatorHealth reports how late the scheduler released requests and how
// much of a core the generator used: the validity guard of open-loop numbers.
func generatorHealth(layer map[string]float64, results []httpResult, genCPU, wall time.Duration) {
	late := make([]float64, len(results))
	for i, r := range results {
		late[i] = float64(r.released.Sub(r.due)) / float64(time.Millisecond)
	}
	sort.Float64s(late)
	layer["loadgen.lateness_ms_p95"] = quantile(late, 0.95)
	layer["loadgen.cpu_share"] = genCPU.Seconds() / wall.Seconds()
}

// serveLayers derives the rows only an HTTP workload has.
func serveLayers(layer map[string]float64, d promDelta, pool []request, order []int, results []httpResult, gauges map[string][]float64) (httpOverheadS float64) {
	var clientS, bytesSum float64
	n := 0
	for i, r := range results {
		if r.err != nil || r.status != 200 {
			continue
		}
		n++
		clientS += r.done.Sub(r.sent).Seconds()
		bytesSum += float64(len(pool[order[i]].Body) + len(r.body))
	}
	const fam = "kamel_http_request_duration_seconds"
	serverS := d.of(fam+"_sum", "route", "/v1/impute", "status", "200")
	serverN := d.of(fam+"_count", "route", "/v1/impute", "status", "200")
	layer["serve.http_overhead_ms_mean"] = 1e3 * (ratio(clientS, float64(n)) - ratio(serverS, serverN))
	layer["serve.bytes_per_req"] = ratio(bytesSum, float64(n))
	layer["serve.shed_share"] = ratio(d.of("kamel_http_shed_total"), float64(len(results)))
	layer["admission.limit_mean"] = mean(gauges["kamel_admission_limit"])
	layer["admission.queue_delay_ms_mean"] = 1e3 * mean(gauges["kamel_admission_queue_delay_seconds"])
	return clientS - ratio(serverS, serverN)*float64(n)
}

// sampleGauges scrapes the server once a second until finish is called and
// keeps the gauges the admission rows average.
func sampleGauges(srv *server) (finish func() map[string][]float64) {
	vals := map[string][]float64{}
	stop := every(time.Second, func() {
		if snap, err := srv.scrape(); err == nil {
			for _, name := range []string{"kamel_admission_limit", "kamel_admission_queue_delay_seconds"} {
				vals[name] = append(vals[name], snap.sum(name))
			}
		}
	})
	return func() map[string][]float64 { stop(); return vals }
}

// interactive: the serving path.  The measured slice is closed loop — one
// request in flight per connection — because only that repeats within a few
// per cent in a window this short; the traced run then adds two open-loop
// slices, below and past the knee, for the latency curve (not gated).
func runInteractive(e *env, local *core.System, chk *checker, trips []geo.Trajectory, rng *rand.Rand, window time.Duration) (*outcome, error) {
	pool := windowRequests(trips, serveSparseM, serveGaps, chk.proj, chk.maxGapM)
	conns := cores()
	o := &outcome{layer: map[string]float64{}}
	closed := window
	if e.tr != nil {
		closed = window * 6 / 10
	}
	passLen, next := zipfCycle(pool, chk.proj, rng)

	srv, err := startServer(e, e.baseWork(), conns)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	warmAndParity(o, srv, local, chk, pool)

	var from promSnapshot
	var gauges func() map[string][]float64
	if e.tr != nil {
		if from, err = srv.scrape(); err != nil {
			return nil, err
		}
		gauges = sampleGauges(srv)
	}
	rss := sampleRSS(srv.cmd.Process.Pid)
	run, order, results := srv.driveClosed(pool, passLen, next, conns, closed, nil, e.tr)
	wall := time.Since(run.start)
	o.took(run)
	if o.rssMB, o.rssPeakMB, err = rss(); err != nil {
		return nil, err
	}
	o.httpScore(chk, pool, order, results, run.measured)
	if e.tr == nil {
		return o, nil
	}

	admission := gauges()
	to, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	d := promDelta{from, to}
	stages := stageLayers(o.layer, d, wall)
	overhead := serveLayers(o.layer, d, pool, order, results, admission)
	o.layer["ledger.unattributed_share"] = unattributed(stages, overhead, sentToDoneMS(results))

	// The rest of the latency curve: open-loop arrivals at two fixed rates.
	var open []httpResult
	gen0, openStart := selfCPU(), time.Now()
	for _, step := range []struct {
		name string
		rate float64
	}{{"r_mid", interactiveRateMid}, {"r_high", interactiveRateHigh}} {
		w := (window - closed) / 2
		n := int(step.rate*w.Seconds() + 0.5)
		order := shuffledDraws(zipfCounts(pool, chk.proj, n, zipfS), rng)
		res := srv.drive(pool, order, poissonSchedule(n, w, rng), conns, e.tr, len(results)+len(open))
		so := &outcome{}
		so.httpScore(chk, pool, order, res, len(res))
		sorted := sortedCopy(so.latMS)
		o.layer["loadgen.p90_ms_"+step.name] = quantile(sorted, 0.90) // 135 and 300 samples in a 15 s run
		o.layer["loadgen.failed_share_"+step.name] = ratio(float64(so.failed), float64(so.attempted))
		o.attempted += so.attempted
		o.failed += so.failed
		o.problems = append(o.problems, so.problems...)
		open = append(open, res...)
	}
	generatorHealth(o.layer, open, selfCPU()-gen0, time.Since(openStart))
	return o, nil
}

// zipfCycle returns the closed-loop request stream of the serving workloads:
// passes over a Zipf-weighted multiset of the pool (twice the pool's size),
// each pass in a fresh seed-derived order.
func zipfCycle(pool []request, proj *geo.Projection, rng *rand.Rand) (passLen int, next func() int) {
	draws := shuffledDraws(zipfCounts(pool, proj, 2*len(pool), zipfS), rng)
	pos := 0
	return len(draws), func() int {
		if pos == len(draws) {
			rng.Shuffle(len(draws), func(a, b int) { draws[a], draws[b] = draws[b], draws[a] })
			pos = 0
		}
		pos++
		return draws[pos-1]
	}
}

func sentToDoneMS(results []httpResult) []float64 {
	out := make([]float64, 0, len(results))
	for _, r := range results {
		if r.err == nil && r.status == 200 {
			out = append(out, float64(r.done.Sub(r.sent))/float64(time.Millisecond))
		}
	}
	return out
}

// ingest: writes beside reads.
func runIngest(e *env, local *core.System, chk *checker, trips []geo.Trajectory, rng *rand.Rand, window time.Duration) (*outcome, error) {
	pool := windowRequests(trips, serveSparseM, serveGaps, chk.proj, chk.maxGapM)
	conns := cores()
	passLen, next := zipfCycle(pool, chk.proj, rng)

	batch, err := readTrips(e.ingestFile())
	if err != nil {
		return nil, err
	}
	var trainBody bytes.Buffer
	trainBody.WriteByte('[')
	for i, tr := range batch {
		if i > 0 {
			trainBody.WriteByte(',')
		}
		trainBody.Write(wireBody(tr))
	}
	trainBody.WriteByte(']')

	// The server trains, so it gets its own copy of the base repository.
	work := filepath.Join(e.tmp, "ingest-work")
	if err := copyTree(e.baseWork(), work); err != nil {
		return nil, err
	}
	steps := int(ingestStepsPerSecond*window.Seconds() + 0.5)
	if steps < 1 {
		steps = 1
	}
	srv, err := startServer(e, work, conns, "-steps", fmt.Sprint(steps))
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	o := &outcome{layer: map[string]float64{}}
	warmAndParity(o, srv, local, chk, pool)

	stats := func() (gen, pending int64, err error) {
		body, err := srv.get("/v1/stats")
		if err != nil {
			return 0, 0, err
		}
		var doc struct {
			SnapshotGeneration int64 `json:"snapshot_generation"`
			MaintenancePending int64 `json:"maintenance_pending"`
		}
		err = json.Unmarshal(body, &doc)
		return doc.SnapshotGeneration, doc.MaintenancePending, err
	}
	var from promSnapshot
	if e.tr != nil {
		if from, err = srv.scrape(); err != nil {
			return nil, err
		}
	}

	// The writer: POST the batch as the window opens, then poll /v1/stats
	// every 100 ms until a snapshot built from it is being served: no rebuild
	// pending, and a snapshot published since the POST returned (the append
	// publishes before it returns; how many publishes a batch takes is the
	// program's business).
	type trainResult struct {
		posted, visible time.Time
		to              promSnapshot
		err             error
	}
	trainDone := make(chan trainResult, 1)
	var training atomic.Bool
	training.Store(true)
	go func() {
		var tr trainResult
		defer func() { training.Store(false); trainDone <- tr }()
		var post httpResult
		srv.post("/v1/train", trainBody.Bytes(), "bench-train", &post, false)
		tr.posted = post.sent
		if post.err != nil || post.status != 200 {
			tr.err = fmt.Errorf("POST /v1/train: status %d err %v: %.160s", post.status, post.err, post.body)
			return
		}
		accepted, _, err := stats()
		if err != nil {
			tr.err = err
			return
		}
		giveUp := post.sent.Add(window + 30*time.Second)
		for time.Now().Before(giveUp) {
			gen, pending, err := stats()
			if err == nil && pending == 0 && gen > accepted {
				tr.visible = time.Now()
				if e.tr != nil {
					tr.to, tr.err = srv.scrape()
				}
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		tr.err = fmt.Errorf("trained batch not served %v after POST /v1/train", window+30*time.Second)
	}()

	rss := sampleRSS(srv.cmd.Process.Pid)
	// The readers stay on until the batch is visible, so that the whole
	// rebuild runs under the same read load; only the window is measured.
	run, order, results := srv.driveClosed(pool, passLen, next, conns, window, training.Load, e.tr)
	tr := <-trainDone
	o.attempted++
	if tr.err != nil {
		o.problem(tr.err)
		tr.visible = time.Now()
	}
	if o.rssMB, o.rssPeakMB, err = rss(); err != nil {
		return nil, err
	}
	e.tr.add("train.visible", -1, 0, tr.posted, tr.visible)
	// Everything is measured over the rebuild: the whole passes answered
	// before the trained batch became visible.  (Afterwards the server answers
	// from models trained for a few steps only; those answers are still
	// checked, but their speed and quality say nothing.)
	if end := run.start.Add(window); tr.visible.Before(end) {
		run.upTo(tr.visible)
	}
	o.took(run)
	o.httpScore(chk, pool, order, results, run.measured)
	o.trainVisible = tr.visible.Sub(tr.posted)
	o.layer["train.visible_s"] = o.trainVisible.Seconds()

	if e.tr != nil && tr.to != nil {
		d := promDelta{from, tr.to}
		stages := stageLayers(o.layer, d, tr.visible.Sub(run.start))
		// The counters ran until the poller saw the new snapshot, so hold them
		// against every request sent until then.
		sent := 0
		for sent < len(results) && results[sent].sent.Before(tr.visible) {
			sent++
		}
		during := results[:sent]
		overhead := serveLayers(o.layer, d, pool, order[:sent], during, nil)
		o.layer["ledger.unattributed_share"] = unattributed(stages, overhead, sentToDoneMS(during))
		rebuildS, _ := d.stage("train.rebuild")
		appendS, appendN := d.stage("train.append")
		models := d.of("kamel_rebuild_models_total")
		o.layer["train.rebuild_s_sum"] = rebuildS
		o.layer["train.models_rebuilt"] = models
		// Computed, not exported: every model of this repository trains the
		// server's full -steps budget.
		o.layer["train.ms_per_model_step"] = 1e3 * ratio(rebuildS, models*float64(steps))
		o.layer["store.append_ms_per_batch"] = 1e3 * ratio(appendS, appendN)
		o.layer["pyramid.commit_ms_mean"] = 1e3 * ratio(d.of("kamel_pyramid_commit_seconds_sum"), d.of("kamel_pyramid_commit_seconds_count"))
	}
	return o, nil
}

func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
