package park

import (
	"sync/atomic"
	"time"

	"synchq/internal/metrics"
	"synchq/internal/spin"
)

// WaitResult reports why a Wait call returned.
type WaitResult int

const (
	// Unparked means the permit was consumed.
	Unparked WaitResult = iota
	// DeadlineExceeded means the deadline passed first.
	DeadlineExceeded
	// Canceled means the cancel channel fired first.
	Canceled
)

// Wait blocks until the permit is available, the deadline passes, or the
// cancel channel fires, whichever comes first. A zero deadline means no
// deadline; a nil cancel channel never fires. Wait(zero, nil) is equivalent
// to Park.
//
// A timed wait sleeps on a timer armed a short lead before its deadline,
// then polls the permit, the cancel channel and the clock until the
// deadline itself, so it neither returns before the deadline nor late by a
// timer's wake-up. The lead is learned from how late past timer ticks
// arrived; on a uniprocessor it is zero and the wait sleeps to the deadline.
//
// Under fault injection (NewFaulty) Wait may also return Unparked without
// a permit (a spurious wakeup) or observe a skewed timer, so callers must
// re-validate their wait condition on every Unparked return — which the
// synchronous queue wait loops do anyway, since a real Unpark only signals
// "look again".
func (p *Parker) Wait(deadline time.Time, cancel <-chan struct{}) WaitResult {
	return p.wait(deadline, cancel, true)
}

// wait is the shared slow path behind every waiting method. faulty selects
// whether the injector's spurious-unpark and timer-skew sites apply (Park's
// exact contract opts out).
//
// The protocol: consume an available permit; otherwise attach a pooled
// notifier, publish the parked state, and block on notifier/timer/cancel.
// The state word is the truth — a notifier token only means "re-examine the
// state word", so stale tokens (from a previous wait, or from an unparker
// racing the detach) cause one extra loop iteration, never a wrong result.
func (p *Parker) wait(deadline time.Time, cancel <-chan struct{}, faulty bool) WaitResult {
	// Fast path: permit already available.
	if p.state.CompareAndSwap(pPermit, pEmpty) {
		return Unparked
	}

	if faulty && p.f.SpuriousWake() {
		return Unparked
	}

	var timerC <-chan time.Time
	var due, wake time.Time // the wait's own deadline (skew applied) and its timer's
	if !deadline.IsZero() {
		d := time.Until(deadline)
		if faulty {
			d = p.f.SkewTimer(d)
		}
		if d <= 0 {
			return DeadlineExceeded
		}
		due = time.Now().Add(d)
		l := lead()
		if d <= l {
			if !leadStale() {
				return p.poll(due, cancel)
			}
			l = d / 2 // sleep half the wait to refresh the estimate
		}
		wake = due.Add(-l)
		t := timerPool.Get().(*time.Timer)
		t.Reset(d - l)
		defer func() {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			timerPool.Put(t)
		}()
		timerC = t.C
	}

	// Attach a notifier for this wait. It may carry a stale token from a
	// previous life; drain it so we don't wake instantly for nothing (a
	// token arriving after the drain is indistinguishable from a spurious
	// unpark and equally harmless).
	n := sigPool.Get().(*notifier)
	select {
	case <-n.ch:
	default:
	}
	p.sig.Store(n)

	p.m.Inc(metrics.Parks)
	// The blocked interval starts here: everything before this point was
	// nonblocking permit negotiation. detach records the interval into the
	// park-time histogram, covering re-parks after stale tokens too.
	t0 := p.m.Start()
	for {
		if !p.state.CompareAndSwap(pEmpty, pParked) {
			// Not empty: a permit arrived between the fast path and
			// here (or a stale-token loop already disarmed us).
			if p.state.CompareAndSwap(pPermit, pEmpty) {
				return p.detach(n, t0, Unparked)
			}
			continue
		}
		select {
		case <-n.ch:
			// Woken by a token. The state word decides whether it was
			// a real permit delivery.
			if p.state.CompareAndSwap(pPermit, pEmpty) {
				return p.detach(n, t0, Unparked)
			}
			// Stale token: disarm back to empty and loop to re-park.
			// If the disarm loses, a real unparker just won and the
			// next iteration consumes the permit.
			p.state.CompareAndSwap(pParked, pEmpty)
		case <-timerC:
			// Disarm. If the disarm loses, an unparker delivered a
			// permit concurrently with the timeout: keep it stored for
			// the owner's next wait (the same outcome the old
			// channel-based Parker had when the timer won the select).
			p.state.CompareAndSwap(pParked, pEmpty)
			now := time.Now()
			if now.Before(wake) {
				// A tick is a hint, like a notifier token: with
				// asynchronous timer channels a pooled timer's tick
				// from its previous wait can land after that wait's
				// Stop-and-drain. Our own timer is still armed for
				// wake, so loop and re-park.
				continue
			}
			observeTick(now, wake)
			if now.Before(due) {
				// Inside the lead window: poll out the rest. A permit
				// that raced the disarm above is consumed there.
				return p.detach(n, t0, p.poll(due, cancel))
			}
			return p.detach(n, t0, DeadlineExceeded)
		case <-cancel:
			p.state.CompareAndSwap(pParked, pEmpty)
			return p.detach(n, t0, Canceled)
		}
	}
}

// detach unhooks the notifier after a slow-path wait and recycles it. An
// unparker that already loaded the pointer may still send one token into
// the recycled notifier; the Get-side drain and the hint-only token
// contract make that benign. t0 is the blocked interval's start, recorded
// into the park-time histogram regardless of how the wait ended — a
// timed-out park was still time spent blocked.
func (p *Parker) detach(n *notifier, t0 int64, r WaitResult) WaitResult {
	p.m.Since(metrics.ParkNs, t0)
	p.sig.Store(nil)
	select {
	case <-n.ch:
	default:
	}
	sigPool.Put(n)
	return r
}

// The poll phase. A timer tick reaches its goroutine later than the time
// it was armed for — the runtime notices the expiry, then the scheduler
// has to run the woken goroutine — so sleeping to the deadline overshoots
// it by that wake-up. Like the paper's spinForTimeoutThreshold, a timed
// wait therefore sleeps only until lead before its deadline and polls
// the rest.
const (
	// lateCap bounds each lateness sample and the lead itself, so one
	// descheduled waiter cannot turn every later wait into a long spin.
	lateCap = 20 * time.Microsecond
	// leadFactor scales the mean lateness into the lead: the lateness
	// distribution has a tail, and a lead that covers only the mean
	// still overshoots about half the time.
	leadFactor = 3
	// staleAfter is how long the estimate may go without a tick. Waits
	// no longer than the lead poll from entry and never tick, so if
	// every wait is that short the estimate would freeze at whatever
	// lead it last reached; once it is this old, the next such wait
	// sleeps on its timer for half its time instead.
	staleAfter = 10 * time.Millisecond
)

var (
	// timerLate smooths how late timer ticks arrive after the time they
	// were armed for, in nanoseconds. It is shared by every Parker and
	// updated only when a timer fires, never on the hand-off path.
	timerLate spin.EWMA
	// lastTick is when timerLate last took a sample, in nanoseconds
	// since epoch, the package's monotonic time base.
	lastTick atomic.Int64
	epoch    = time.Now()
	// multicore gates the poll phase: with one CPU a polling waiter
	// would only delay the goroutine that could wake it. A variable so
	// tests can force the uniprocessor branch.
	multicore = spin.Multicore()
	// polls counts the poll phases entered, for tests.
	polls atomic.Int64
)

// lead is how long before its deadline a timed wait stops sleeping and
// starts polling: zero on a uniprocessor, else leadFactor times the mean
// timer lateness, at most lateCap.
func lead() time.Duration {
	if !multicore {
		return 0
	}
	return min(leadFactor*time.Duration(timerLate.Value()), lateCap)
}

// observeTick folds the lateness of a tick that arrived at now for a
// timer armed for wake into timerLate.
func observeTick(now, wake time.Time) {
	if multicore {
		timerLate.Observe(uint64(min(now.Sub(wake), lateCap)))
		lastTick.Store(int64(now.Sub(epoch)))
	}
}

// leadStale reports whether timerLate has gone staleAfter without a
// sample.
func leadStale() bool {
	return time.Since(epoch)-time.Duration(lastTick.Load()) > staleAfter
}

// poll busy-waits until the permit arrives, cancel fires or due passes,
// checking them in that order, so it returns DeadlineExceeded only at or
// after due. The owner's state word is empty throughout, so an unparker
// deposits its permit with one CAS and sends no token.
func (p *Parker) poll(due time.Time, cancel <-chan struct{}) WaitResult {
	polls.Add(1)
	for i := 0; ; i++ {
		if p.state.CompareAndSwap(pPermit, pEmpty) {
			return Unparked
		}
		select {
		case <-cancel:
			return Canceled
		default:
		}
		if !time.Now().Before(due) {
			return DeadlineExceeded
		}
		spin.Pause(i)
	}
}
