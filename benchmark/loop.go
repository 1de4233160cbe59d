package main

import (
	"sync"
	"time"
)

// closedRun describes what a closed loop got through.
type closedRun struct {
	start time.Time
	// measured is how many requests, in the order they were handed out, make
	// up the whole passes that completed inside the window.  Only those are
	// measured: a pass is the same multiset of requests for every seed, so
	// two runs differ in order and timing and in nothing else.
	measured int
	passes   int
	interval time.Duration // start → completion of the last whole pass
	// passWall and passCPU are the medians, over the measured passes, of how
	// long a pass took and how much CPU (cpuNow) it used.  Every pass is the
	// same work, so the passes of one run are repeated measurements of one
	// quantity, and their median shrugs off a disturbance that hits one of
	// them.  Rates are taken from these.
	passWall, passCPU time.Duration
	issued            int

	passLen int
	ends    []passEnd // completed passes, in order
	total   passEnd   // when the loop drained, for the no-whole-pass fallback
	cpu0    time.Duration
}

// passEnd is the moment a pass's last request was answered.
type passEnd struct {
	at  time.Time
	cpu time.Duration
}

// upTo fixes what is measured: the whole passes that completed by cutoff.  If
// not even one did (a window far shorter than the benchmark's), everything
// issued is measured, over the time it took.
func (r *closedRun) upTo(cutoff time.Time) {
	var walls, cpus []float64
	last := passEnd{r.start, r.cpu0}
	for _, p := range r.ends {
		if p.at.After(cutoff) {
			break
		}
		walls, cpus = append(walls, float64(p.at.Sub(last.at))), append(cpus, float64(p.cpu-last.cpu))
		last = p
	}
	r.passes = len(walls)
	r.measured, r.interval = r.passes*r.passLen, last.at.Sub(r.start)
	r.passWall, r.passCPU = time.Duration(median(walls)), time.Duration(median(cpus))
	if r.passes == 0 {
		r.measured, r.interval = r.issued, r.total.at.Sub(r.start)
		r.passWall, r.passCPU = r.interval, r.total.cpu-r.cpu0
	}
}

// closedLoop runs workers goroutines that each call do(seq, next()) again and
// again until the window closes: a client takes its next request only when
// the previous one has been answered.  next is called under a lock, do
// concurrently.  The request stream must repeat every passLen requests.  The
// result measures the passes completed inside the window; upTo narrows that.
//
// extend, when not nil, keeps the load on after the window for as long as it
// returns true; what is answered then is not measured.
func closedLoop(workers int, window time.Duration, passLen int, next func() int, cpuNow func() time.Duration, extend func() bool, do func(seq, idx int)) closedRun {
	var mu sync.Mutex // guards next, run.issued, run.ends and done
	var done []int    // requests answered, per pass
	run := closedRun{start: time.Now(), passLen: passLen, cpu0: cpuNow()}
	deadline := run.start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if !time.Now().Before(deadline) && (extend == nil || !extend()) {
					mu.Unlock()
					return
				}
				seq := run.issued
				run.issued++
				idx := next()
				if seq/passLen == len(done) {
					done = append(done, 0)
				}
				mu.Unlock()
				do(seq, idx)
				mu.Lock()
				// Passes complete in order: a pass's requests are all handed
				// out before the next one's, to workers that finish them
				// before taking more.
				if done[seq/passLen]++; done[seq/passLen] == passLen {
					run.ends = append(run.ends, passEnd{time.Now(), cpuNow()})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.total = passEnd{time.Now(), cpuNow()}
	run.upTo(deadline)
	return run
}
