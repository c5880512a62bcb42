package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
)

func metricsHandleForTest() *metrics.Handle { return metrics.New() }

// assertBridgeCounters checks the counter story of a verified bridge run:
// transfers happened, the cancellation mix drove the abandon paths, and
// waiting actually blocked goroutines.
func assertBridgeCounters(t *testing.T, h *metrics.Handle) {
	t.Helper()
	s := h.Snapshot()
	if s.Get(metrics.Fulfillments) == 0 {
		t.Error("no fulfillments counted in a run that verified transfers")
	}
	if s.Get(metrics.Timeouts)+s.Get(metrics.Cancellations) == 0 {
		t.Error("no timeouts or cancellations counted in a mix full of both")
	}
	if s.Get(metrics.Parks) == 0 {
		t.Error("no parks counted in a blocking workload")
	}
	if s.Get(metrics.Unparks) > s.Get(metrics.Parks)+s.Get(metrics.Fulfillments) {
		t.Errorf("unparks (%d) exceed parks+fulfillments (%d+%d): permit deliveries unaccounted",
			s.Get(metrics.Unparks), s.Get(metrics.Parks), s.Get(metrics.Fulfillments))
	}
}

// TestMetricsQueueCleanSweepDeterministic pins the cleanMe counter to the
// paper's cleaning protocol with a deterministic interleaving: a waiter
// that times out while an *interior* node (a live waiter sits behind it)
// must be unlinked by its own clean() call, and the unlink must be
// counted. The middle waiter is held at the enqueue-pause site, linked but
// not yet waiting, until the back waiter has linked behind it, so its
// timeout cannot race ahead of the back waiter however the host schedules.
func TestMetricsQueueCleanSweepDeterministic(t *testing.T) {
	var hold atomic.Bool
	linked, gate := make(chan struct{}), make(chan struct{})
	inj := fault.New(fault.Config{
		Seed:        1,
		PreemptRate: 1,
		Sites:       []fault.Site{fault.QEnqueuePause},
		PreemptFunc: func(fault.Site) {
			if hold.CompareAndSwap(true, false) {
				close(linked)
				<-gate
			}
		},
	})
	h := metrics.New()
	q := NewDualQueue[int](WaitConfig{Metrics: h, Fault: inj})

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	// g1: long-patience waiter at the front.
	go func() {
		defer wg.Done()
		<-release
		if _, st := q.TakeDeadline(time.Now().Add(2*time.Second), nil); st != OK {
			t.Errorf("front waiter: status %v, want OK", st)
		}
	}()
	close(release)
	waitFor(t, func() bool { return q.Len() == 1 })

	// g2: short-patience waiter behind it — this node will cancel. It
	// stops at the enqueue-pause site right after its link CAS.
	hold.Store(true)
	timedOut := make(chan struct{})
	go func() {
		_, st := q.TakeDeadline(time.Now().Add(3*time.Millisecond), nil)
		if st != Timeout {
			t.Errorf("middle waiter: status %v, want Timeout", st)
		}
		close(timedOut)
	}()
	<-linked
	waitFor(t, func() bool { return q.Len() == 2 })

	// g3: another long waiter so the canceled node is interior, not tail.
	go func() {
		defer wg.Done()
		<-release
		if _, st := q.TakeDeadline(time.Now().Add(2*time.Second), nil); st != OK {
			t.Errorf("back waiter: status %v, want OK", st)
		}
	}()
	waitFor(t, func() bool { return q.Len() == 3 })
	close(gate) // g2 may now wait out (or has already passed) its deadline

	<-timedOut
	if got := h.Load(metrics.Timeouts); got == 0 {
		t.Error("timeout not counted")
	}
	// The canceled node was interior, so clean() must have unlinked it
	// immediately (possibly after absorbing at head) — a counted sweep.
	if got := h.Load(metrics.CleanSweeps); got == 0 {
		t.Errorf("clean-sweeps = %d after interior cancellation, want > 0", got)
	}

	q.Put(1)
	q.Put(2)
	wg.Wait()
	if got := h.Load(metrics.Fulfillments); got != 2 {
		t.Errorf("fulfillments = %d, want 2", got)
	}
	if got := q.Len(); got != 0 {
		t.Fatalf("Len = %d at end, want 0", got)
	}
}

// waitFor polls cond until true or a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMetricsStackCountersFire drives the dual stack through its
// fulfillment, timeout, and cancellation paths and checks the counters
// tell that story.
func TestMetricsStackCountersFire(t *testing.T) {
	h := metrics.New()
	q := NewDualStack[int](WaitConfig{Metrics: h})

	// Timeout path (pure poll: nothing waiting).
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll on empty stack succeeded")
	}
	if got := h.Load(metrics.Timeouts); got == 0 {
		t.Error("poll miss not counted as timeout")
	}

	// Cancellation path.
	cancel := make(chan struct{})
	close(cancel)
	if st := q.PutDeadline(1, time.Time{}, cancel); st != Canceled {
		t.Fatalf("PutDeadline with closed cancel: %v, want Canceled", st)
	}
	if got := h.Load(metrics.Cancellations); got == 0 {
		t.Error("cancellation not counted")
	}

	// Fulfillment (and park/unpark) path.
	done := make(chan int, 1)
	go func() { done <- q.Take() }()
	waitFor(t, func() bool { return q.Len() == 1 })
	q.Put(7)
	if got := <-done; got != 7 {
		t.Fatalf("Take = %d, want 7", got)
	}
	if got := h.Load(metrics.Fulfillments); got != 1 {
		t.Errorf("fulfillments = %d, want 1", got)
	}
}

// TestMetricsDisabledStructuresWork re-checks the basic rendezvous with a
// nil handle, guarding the disabled path of every hook (one branch, no
// recording, no panic).
func TestMetricsDisabledStructuresWork(t *testing.T) {
	q := NewDualQueue[int](WaitConfig{})
	if q.Metrics() != nil {
		t.Fatal("zero WaitConfig attached a metrics handle")
	}
	done := make(chan int, 1)
	go func() { done <- q.Take() }()
	q.Put(42)
	if got := <-done; got != 42 {
		t.Fatalf("Take = %d, want 42", got)
	}
	s := NewDualStack[int](WaitConfig{})
	if s.Metrics() != nil {
		t.Fatal("zero WaitConfig attached a metrics handle to the stack")
	}
	if _, ok := s.Poll(); ok {
		t.Fatal("Poll on empty stack succeeded")
	}
}
