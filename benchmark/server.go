package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clientTimeout bounds one HTTP request; a request that hits it is failed and
// counts as this slow in the latency percentiles (over any limit).
const clientTimeout = 10 * time.Second

// server is a `kamel serve` child: the process under test of the HTTP
// workloads.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	done   chan struct{} // closed when the child has exited
}

// startServer launches `kamel serve` on work, on a free loopback port, and
// waits until /readyz reports the models loaded.  The client keeps at most
// conns connections for the load: the generator never has more in flight.
func startServer(e *env, work string, conns int, extra ...string) (*server, error) {
	logPath := filepath.Join(e.tmp, "serve.log")
	fail := func(what string) error {
		tail, _ := os.ReadFile(logPath)
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return fmt.Errorf("kamel serve %s; its log ends:\n%s", what, tail)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"serve", "-work", work, "-addr", addr}, extra...)
	cmd := exec.Command(e.kamelBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{
		cmd: cmd, url: "http://" + addr, done: make(chan struct{}),
		client: &http.Client{
			Timeout: clientTimeout,
			// Two more connections than the load uses: one for the stats
			// poller and scrapes, one for the train request.
			Transport: &http.Transport{MaxConnsPerHost: conns + 2, MaxIdleConnsPerHost: conns + 2},
		},
	}
	go func() { cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fail("exited during start-up")
		default:
		}
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.stop()
	return nil, fail("was not ready after 30 s")
}

// stop drains the server and waits for the process to end.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.client.CloseIdleConnections()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *server) scrape() (promSnapshot, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(bytes.NewReader(body))
}

// procCPU returns the user+system CPU time a process has used so far.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks (100 per second on Linux).
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * (time.Second / 100), nil
}

// procRSSMB returns one field of /proc/<pid>/status in MB: VmRSS, the
// resident set now, or VmHWM, its high-water mark.
func procRSSMB(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// every calls fn now and then once per period on its own goroutine, until the
// returned stop function is called; stop returns when the goroutine has ended.
func every(period time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			fn()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(quit); <-done }
}

// sampleRSS reads a process's resident set ten times a second until finish is
// called, which returns the median of the samples and the process's
// high-water mark.  The ledger reports the median: the high-water mark of a
// garbage-collected process depends on when a collection happened to run and
// differs by 15 % between identical runs, the median by 2 %.
func sampleRSS(pid int) (finish func() (medianMB, peakMB float64, err error)) {
	var samples []float64
	stop := every(100*time.Millisecond, func() {
		if mb, err := procRSSMB(pid, "VmRSS"); err == nil {
			samples = append(samples, mb)
		}
	})
	return func() (float64, float64, error) {
		stop()
		peak, err := procRSSMB(pid, "VmHWM")
		return median(samples), peak, err
	}
}

// httpResult is what the generator saw of one request.
type httpResult struct {
	due, released, sent, firstByte, done time.Time
	status                               int
	body                                 []byte
	err                                  error
}

// post sends one /v1/impute request and reads the whole answer.
func (s *server) post(path string, body []byte, client string, res *httpResult, wantFirstByte bool) {
	ctx := context.Background()
	if wantFirstByte {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotFirstResponseByte: func() { res.firstByte = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set("X-Kamel-Client", client)
	}
	res.sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		res.err, res.done = err, time.Now()
		return
	}
	res.body, res.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Now()
	res.status = resp.StatusCode
}

// drive is the open-loop generator: request order[i] of pool is due at
// start+due[i] whatever the server is doing.  A single scheduler releases
// each request at its due time; conns workers (one connection each) send
// them.  A request that finds every worker busy waits in the queue, and that
// wait is part of its latency, because latency runs from the due time.  Span
// request ids run from firstID.
func (s *server) drive(pool []request, order []int, due []time.Duration, conns int, tr *tracer, firstID int) []httpResult {
	results := make([]httpResult, len(order))
	queue := make(chan int, len(order)) // one slot per send: the scheduler never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s.post("/v1/impute", pool[order[i]].Body, fmt.Sprintf("bench-%d", i%4), &results[i], tr != nil)
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i, d := range due {
		at := start.Add(d)
		time.Sleep(time.Until(at))
		results[i].due, results[i].released = at, time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	traceRequests(tr, results, firstID)
	return results
}

// traceRequests records the spans of a slice of requests; their request ids
// run from firstID, so that ids stay unique across the slices of one run.
func traceRequests(tr *tracer, results []httpResult, firstID int) {
	for i := range results {
		r, id := &results[i], firstID+i
		root := tr.add("request", id, 0, r.due, r.done)
		tr.add("client.wait", id, root, r.due, r.sent)
		wire := tr.add("http", id, root, r.sent, r.done)
		if !r.firstByte.IsZero() {
			tr.add("http.to_first_byte", id, wire, r.sent, r.firstByte)
			tr.add("http.read_body", id, wire, r.firstByte, r.done)
		}
	}
}

// driveClosed is the closed-loop generator: each of conns connections sends
// its next request as soon as the previous one is answered, until the window
// closes (see closedLoop).  A request is due when it is sent.  order and
// results are indexed by the sequence in which requests were handed out.
func (s *server) driveClosed(pool []request, passLen int, next func() int, conns int, window time.Duration, extend func() bool, tr *tracer) (run closedRun, order []int, results []httpResult) {
	var mu sync.Mutex // guards order and results
	pid := s.cmd.Process.Pid
	cpuNow := func() time.Duration { d, _ := procCPU(pid); return d }
	run = closedLoop(conns, window, passLen, next, cpuNow, extend, func(seq, idx int) {
		var res httpResult
		s.post("/v1/impute", pool[idx].Body, "bench-0", &res, tr != nil)
		res.due, res.released = res.sent, res.sent
		mu.Lock()
		defer mu.Unlock()
		for len(results) <= seq {
			results, order = append(results, httpResult{}), append(order, 0)
		}
		results[seq], order[seq] = res, idx
	})
	traceRequests(tr, results, 0)
	return run, order, results
}
