package park

import (
	"runtime"
	"testing"
	"time"

	"synchq/internal/metrics"
)

// timedWaitsNeverEarly runs n timed Waits of each duration on one parker
// that nobody unparks and fails the test if any returns anything but
// DeadlineExceeded, or returns before its deadline.
func timedWaitsNeverEarly(t *testing.T, n int) {
	t.Helper()
	p := New()
	for _, d := range []time.Duration{
		time.Microsecond, 5 * time.Microsecond, 20 * time.Microsecond,
		100 * time.Microsecond, time.Millisecond,
	} {
		waits := n
		if d == time.Millisecond {
			waits = n / 10
		}
		early := 0
		for i := 0; i < waits; i++ {
			deadline := time.Now().Add(d)
			if r := p.Wait(deadline, nil); r != DeadlineExceeded {
				t.Fatalf("%v wait = %v with no unparker, want DeadlineExceeded", d, r)
			}
			if time.Now().Before(deadline) {
				early++
			}
		}
		if early > 0 {
			t.Errorf("%d of %d waits of %v returned before their deadline", early, waits, d)
		}
	}
}

// TestTimedWaitNeverReturnsEarly: with no fault injector, no timed wait
// returns before its deadline, whether it ends in the timer or in the
// poll. On a multicore host the waits' own timer ticks teach the lead, so
// later waits must have polled.
func TestTimedWaitNeverReturnsEarly(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 100
	}
	before := polls.Load()
	timedWaitsNeverEarly(t, n)
	if multicore && polls.Load() == before {
		t.Error("no timed wait polled; the lead was never learned")
	}
}

// pollUntilDone starts p.poll with a far deadline, waits until it is
// polling, runs act, and returns the poll's result.
func pollUntilDone(t *testing.T, p *Parker, cancel <-chan struct{}, act func()) WaitResult {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	before := polls.Load()
	done := make(chan WaitResult, 1)
	go func() { done <- p.poll(time.Now().Add(time.Minute), cancel) }()
	for polls.Load() == before {
		runtime.Gosched()
	}
	act()
	select {
	case r := <-done:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("poll did not return")
		return 0
	}
}

// TestUnparkDuringPollConsumedOnce: an Unpark that lands during the poll
// ends it with Unparked, and the permit is consumed exactly once — none is
// left for the next wait.
func TestUnparkDuringPollConsumedOnce(t *testing.T) {
	h := metrics.New()
	p := NewMetered(h)
	if r := pollUntilDone(t, p, nil, p.Unpark); r != Unparked {
		t.Fatalf("poll = %v after Unpark, want Unparked", r)
	}
	if p.TryPark() {
		t.Fatal("the permit outlived the poll that consumed it")
	}
	if n := h.Load(metrics.Unparks); n != 1 {
		t.Fatalf("delivered unparks = %d, want 1", n)
	}
	if r := p.Wait(time.Now().Add(time.Millisecond), nil); r != DeadlineExceeded {
		t.Fatalf("next Wait = %v, want DeadlineExceeded", r)
	}
}

// TestCancelDuringPoll: a cancel that fires during the poll ends it with
// Canceled.
func TestCancelDuringPoll(t *testing.T) {
	p := New()
	cancel := make(chan struct{})
	if r := pollUntilDone(t, p, cancel, func() { close(cancel) }); r != Canceled {
		t.Fatalf("poll = %v after cancel, want Canceled", r)
	}
}

// TestUniprocessorWaitNeverPolls: with the uniprocessor branch forced the
// lead is zero however late timers have fired, so timed waits sleep to
// their deadline and never poll — and still never return early.
func TestUniprocessorWaitNeverPolls(t *testing.T) {
	defer func(m bool) { multicore = m }(multicore)
	defer timerLate.Init(timerLate.Value())
	multicore = false
	timerLate.Init(uint64(lateCap))
	if l := lead(); l != 0 {
		t.Fatalf("uniprocessor lead = %v, want 0", l)
	}
	before := polls.Load()
	timedWaitsNeverEarly(t, 50)
	if n := polls.Load() - before; n != 0 {
		t.Errorf("%d timed waits polled on the uniprocessor branch", n)
	}
}

// TestStaleLeadRefreshes: a wait short enough to poll from entry teaches
// the estimate nothing, so once the estimate has gone staleAfter without
// a tick the next such wait sleeps on its timer instead, and its tick
// refreshes the estimate; after that, short waits poll from entry again.
func TestStaleLeadRefreshes(t *testing.T) {
	if !multicore {
		t.Skip("uniprocessor: the wait never polls")
	}
	defer timerLate.Init(timerLate.Value())
	defer func(v int64) { lastTick.Store(v) }(lastTick.Load())
	timerLate.Init(uint64(lateCap))
	lastTick.Store(int64(time.Since(epoch) - 2*staleAfter))
	d := lead() / 2
	p := New()

	deadline := time.Now().Add(d)
	if r := p.Wait(deadline, nil); r != DeadlineExceeded || time.Now().Before(deadline) {
		t.Fatalf("stale-estimate wait of %v = %v, want DeadlineExceeded at or after its deadline", d, r)
	}
	if leadStale() {
		t.Fatal("the wait after a stale estimate did not sleep on its timer and refresh it")
	}
	before := polls.Load()
	deadline = time.Now().Add(d)
	if r := p.Wait(deadline, nil); r != DeadlineExceeded || time.Now().Before(deadline) {
		t.Fatalf("fresh-estimate wait of %v = %v, want DeadlineExceeded at or after its deadline", d, r)
	}
	if polls.Load() == before {
		t.Error("a wait shorter than a fresh lead did not poll")
	}
}
