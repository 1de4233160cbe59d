package batcher

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kamel/internal/bert"
)

// fakeClock is a manually advanced clock making controller evaluation
// deterministic: every test drives intervals explicitly.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestAdmission(clk *fakeClock, tweak func(*AdmissionOptions)) *Admission {
	opts := AdmissionOptions{
		Target:   10 * time.Millisecond,
		MaxLimit: 64,
		Interval: 100 * time.Millisecond,
		Now:      clk.Now,
	}
	if tweak != nil {
		tweak(&opts)
	}
	return NewAdmission(opts)
}

// drive simulates one evaluation interval of uniform queue delay and advances
// the clock past the interval so the next controller touch evaluates.
func drive(a *Admission, clk *fakeClock, delay time.Duration) {
	a.ObserveQueueDelay(delay)
	clk.Advance(101 * time.Millisecond)
	a.ObserveQueueDelay(delay) // first touch after the boundary triggers eval
}

func TestAdmissionStartsAtMaxLimit(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, nil)
	if got := a.Limit(); got != 64 {
		t.Fatalf("initial limit = %d, want MaxLimit 64", got)
	}
	release, shed := a.Admit("c1", Interactive)
	if shed != nil {
		t.Fatalf("first admit shed: %+v", shed)
	}
	release()
	release() // double release must not double-decrement
	if st := a.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight after release = %d, want 0", st.Inflight)
	}
}

// Under sustained queue delay above target, the limit must converge downward
// (multiplicative decrease) and hold near the floor rather than oscillating
// back to max.
func TestAdmissionConvergesUnderStepOverload(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, nil)
	for i := 0; i < 40; i++ {
		drive(a, clk, 50*time.Millisecond) // 5x the target, every interval
	}
	if got := a.Limit(); got != 1 {
		t.Fatalf("limit after sustained overload = %d, want MinLimit 1", got)
	}
	st := a.Stats()
	if st.LimitDecreases == 0 {
		t.Fatal("no multiplicative decreases recorded")
	}
	if st.QueueDelayMS < 49 || st.QueueDelayMS > 51 {
		t.Fatalf("observed queue delay = %.1fms, want ~50ms", st.QueueDelayMS)
	}
}

// When the overload clears, additive increase (plus idle catch-up) must bring
// the limit back up to MaxLimit.
func TestAdmissionRecoversAfterLoadDrops(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, nil)
	for i := 0; i < 40; i++ {
		drive(a, clk, 50*time.Millisecond)
	}
	if got := a.Limit(); got != 1 {
		t.Fatalf("limit after overload = %d, want 1", got)
	}
	// Load drops but traffic continues at healthy delay: additive recovery.
	for i := 0; i < 10; i++ {
		drive(a, clk, time.Millisecond)
	}
	if got := a.Limit(); got != 11 {
		t.Fatalf("limit after 10 healthy intervals = %d, want 11 (additive +1)", got)
	}
	// Traffic stops entirely: idle catch-up recovers a quarter of the gap
	// per interval, reaching MaxLimit in a handful of evals.
	for i := 0; i < 20; i++ {
		clk.Advance(101 * time.Millisecond)
		if rel, shed := a.Admit("probe", Interactive); shed == nil {
			rel()
		}
	}
	if got := a.Limit(); got != 64 {
		t.Fatalf("limit after idle recovery = %d, want 64", got)
	}
}

// The limit check itself: beyond the current limit, interactive admissions
// shed with reason "limit" and a Retry-After derived from observed delay.
func TestAdmissionShedsAtLimit(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) { o.MaxLimit = 4 })
	var releases []func()
	for i := 0; i < 4; i++ {
		rel, shed := a.Admit(fmt.Sprintf("c%d", i), Interactive)
		if shed != nil {
			t.Fatalf("admit %d shed: %+v", i, shed)
		}
		releases = append(releases, rel)
	}
	_, shed := a.Admit("c9", Interactive)
	if shed == nil {
		t.Fatal("admission beyond the limit succeeded")
	}
	if shed.Reason != "limit" {
		t.Fatalf("shed reason = %q, want limit", shed.Reason)
	}
	if shed.RetryAfter < 1 {
		t.Fatalf("Retry-After = %d, want >= 1", shed.RetryAfter)
	}
	for _, rel := range releases {
		rel()
	}
	if rel, shed := a.Admit("c9", Interactive); shed != nil {
		t.Fatalf("admit after release shed: %+v", shed)
	} else {
		rel()
	}
}

// Retry-After must scale with the overshoot: observed/target rounded up,
// clamped to 30.
func TestAdmissionRetryAfterDerivation(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) { o.MaxLimit = 1 })
	rel, _ := a.Admit("holder", Interactive)
	defer rel()

	cases := []struct {
		delay time.Duration
		want  int
	}{
		{time.Millisecond, 1},      // under target: minimum backoff
		{35 * time.Millisecond, 4}, // ceil(35/10)
		{10 * time.Second, 30},     // clamped
	}
	for _, tc := range cases {
		drive(a, clk, tc.delay)
		_, shed := a.Admit("other", Interactive)
		if shed == nil {
			t.Fatalf("delay %v: expected shed", tc.delay)
		}
		if shed.RetryAfter != tc.want {
			t.Fatalf("delay %v: Retry-After = %d, want %d", tc.delay, shed.RetryAfter, tc.want)
		}
	}
}

// Bulk work must shed once in-flight crosses BulkHeadroom*limit while
// interactive work still admits, so a bulk flood cannot occupy the slice of
// capacity reserved for interactive traffic.
func TestAdmissionBulkCannotStarveInteractive(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) {
		o.MaxLimit = 8
		o.BulkHeadroom = 0.75
		o.QuotaBurst = 8 // quotas wide open: this test isolates the headroom
	})
	// A bulk flood from one tenant grabs what it can: exactly 6 slots (8*0.75).
	admitted := 0
	for i := 0; i < 20; i++ {
		if rel, shed := a.Admit("bulkTenant", Bulk); shed == nil {
			admitted++
			_ = rel
		} else if shed.Reason != "bulk" {
			t.Fatalf("bulk shed reason = %q, want bulk", shed.Reason)
		}
	}
	if admitted != 6 {
		t.Fatalf("bulk admitted %d slots, want 6 (0.75 * 8)", admitted)
	}
	// Interactive work still fits in the reserved headroom.
	for i := 0; i < 2; i++ {
		if _, shed := a.Admit("user", Interactive); shed != nil {
			t.Fatalf("interactive admit %d shed behind bulk flood: %+v", i, shed)
		}
	}
	// Now the global limit is genuinely full; interactive sheds with "limit".
	if _, shed := a.Admit("user", Interactive); shed == nil {
		t.Fatal("admission beyond MaxLimit succeeded")
	} else if shed.Reason != "limit" {
		t.Fatalf("shed reason = %q, want limit", shed.Reason)
	}
}

// A flooding client must hit its fair-share ceiling and be shed with reason
// "quota" while a second client keeps admitting.
func TestAdmissionQuotaIsolatesFloodingClient(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) {
		o.MaxLimit = 16
		o.QuotaBurst = 1
	})
	// Two active clients: fair share is ceil(16*1/2) = 8.
	relA, shed := a.Admit("good", Interactive)
	if shed != nil {
		t.Fatalf("good client shed: %+v", shed)
	}
	defer relA()

	flooded := 0
	var quotaSheds int
	for i := 0; i < 20; i++ {
		if _, shed := a.Admit("flood", Interactive); shed == nil {
			flooded++
		} else {
			if shed.Reason != "quota" {
				t.Fatalf("flood shed reason = %q, want quota", shed.Reason)
			}
			quotaSheds++
		}
	}
	if flooded != 8 {
		t.Fatalf("flooding client holds %d slots, want fair share 8", flooded)
	}
	if quotaSheds == 0 {
		t.Fatal("no quota sheds recorded")
	}
	// The good client still has room: 16 - 1 - 8 = 7 free slots, and its own
	// quota (8) is not exhausted.
	for i := 0; i < 7; i++ {
		if _, shed := a.Admit("good", Interactive); shed != nil {
			t.Fatalf("good client admit %d shed behind flood: %+v", i, shed)
		}
	}
	st := a.Stats()
	if st.ShedQuota == 0 {
		t.Fatal("stats missing quota sheds")
	}
	if st.ActiveClients != 2 {
		t.Fatalf("active clients = %d, want 2", st.ActiveClients)
	}
}

// The anonymous fallback shares one quota bucket: requests without a client
// header cannot bypass fair-share by being unattributed.
func TestAdmissionAnonymousSharesOneBucket(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) {
		o.MaxLimit = 8
		o.QuotaBurst = 1
	})
	rel, shed := a.Admit("named", Interactive)
	if shed != nil {
		t.Fatalf("named client shed: %+v", shed)
	}
	defer rel()
	anon := 0
	for i := 0; i < 10; i++ {
		if _, s := a.Admit("", Interactive); s == nil {
			anon++
		}
	}
	if anon != 4 { // ceil(8*1/2)
		t.Fatalf("anonymous slots = %d, want fair share 4", anon)
	}
}

// The client table must stay bounded: evictions prefer entries holding no
// slots, and the map never exceeds QuotaClients.
func TestAdmissionClientTableLRUBound(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) {
		o.MaxLimit = 256
		o.QuotaClients = 8
		o.QuotaBurst = 256 // quotas wide open
	})
	// A holder that must survive eviction pressure with correct accounting.
	relHold, shed := a.Admit("holder", Interactive)
	if shed != nil {
		t.Fatalf("holder shed: %+v", shed)
	}
	for i := 0; i < 100; i++ {
		rel, shed := a.Admit(fmt.Sprintf("churn-%d", i), Interactive)
		if shed != nil {
			t.Fatalf("churn client %d shed: %+v", i, shed)
		}
		rel()
	}
	st := a.Stats()
	if st.TrackedClients > 8 {
		t.Fatalf("tracked clients = %d, want <= 8", st.TrackedClients)
	}
	if st.Inflight != 1 {
		t.Fatalf("inflight = %d, want 1 (the holder)", st.Inflight)
	}
	relHold()
	if st := a.Stats(); st.Inflight != 0 {
		t.Fatalf("inflight after holder release = %d, want 0", st.Inflight)
	}
}

// Idle clients must fall out of the fair-share divisor after the activity
// window, restoring a lone client's full burst allowance.
func TestAdmissionActiveClientDecay(t *testing.T) {
	clk := newFakeClock()
	a := newTestAdmission(clk, func(o *AdmissionOptions) {
		o.MaxLimit = 16
		o.QuotaBurst = 1
		o.ActivityWindow = 500 * time.Millisecond
	})
	// Three clients touch; divisor becomes 3.
	for _, id := range []string{"a", "b", "c"} {
		rel, shed := a.Admit(id, Interactive)
		if shed != nil {
			t.Fatalf("client %s shed: %+v", id, shed)
		}
		rel()
	}
	if st := a.Stats(); st.ActiveClients != 3 {
		t.Fatalf("active clients = %d, want 3", st.ActiveClients)
	}
	// Two go idle past the window; after an eval only the returning client
	// counts, so it gets the whole limit to itself.
	clk.Advance(time.Second)
	got := 0
	for i := 0; i < 20; i++ {
		if _, shed := a.Admit("a", Interactive); shed == nil {
			got++
		}
	}
	if got != 16 {
		t.Fatalf("lone client admitted %d, want full limit 16", got)
	}
}

// The batcher's queue-wait observer hook must deliver each dispatched item's
// wait to the registered callback.
func TestBatcherQueueWaitObserver(t *testing.T) {
	b := New(Options{})
	defer b.Close()
	waits := make(chan time.Duration, 16)
	b.SetQueueWaitObserver(func(d time.Duration) { waits <- d })
	eng := &fakeEngine{}
	fut, err := b.Submit(context.Background(), eng, []bert.MaskQuery{q(1), q(2), q(3)}, Interactive)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatalf("wait: %v", err)
	}
	for i := 0; i < 3; i++ {
		select {
		case d := <-waits:
			if d < 0 {
				t.Fatalf("negative queue wait %v", d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("observer saw %d/3 waits", i)
		}
	}
	b.SetQueueWaitObserver(nil) // unregister must not panic the dispatcher
}
