package core

import (
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/park"
	"synchq/internal/spin"
)

// Node modes for the dual stack. A node is a request, a datum, or a
// fulfilling node pushed on top of a complementary node to "annihilate"
// with it. The paper notes Java cannot set flag bits in pointers, so the
// mode lives in a word of its own in the node — the same choice made here.
const (
	modeRequest    uint8 = 0
	modeData       uint8 = 1
	modeFulfilling uint8 = 2
)

// snode is a node of the synchronous dual stack. match is the annihilation
// pointer: a fulfiller CASes it from nil to itself; a waiter that times out
// CASes it from nil to the node itself (self-match means canceled), and a
// close sweep CASes it from nil to the stack's closed sentinel. item is
// boxed (qitem) so the ticket API can share value plumbing with the queue;
// unlike the queue's circulating boxes, a stack node's datum rides in the
// node's own embedded box, stored into item before the publishing push.
//
// wp is the embedded parker, initialized in place by awaitFulfill, and box
// the embedded item box, so a push-and-wait allocates only the node itself.
// A node that has been linked into the stack (its push CAS succeeded) is
// reclaimed only by the garbage collector — never pooled — because stale
// traversers (helpers, cleaners, losing fulfillers, the close sweep) may
// still hold its address for head/next/match CASes, and address reuse would
// reintroduce exactly the ABA those CASes rely on pointer identity to avoid
// (see DESIGN.md "Node and parker lifecycle").
type snode[T any] struct {
	next   atomic.Pointer[snode[T]]
	match  atomic.Pointer[snode[T]]
	waiter atomic.Pointer[park.Parker]
	item   atomic.Pointer[qitem[T]]
	wp     park.Parker
	box    qitem[T]
	mode   uint8
	// Pad to the next cache-line multiple (88 → 128 bytes for word-sized
	// T): at 88 the allocator's 96-byte size class leaves consecutive
	// nodes straddling shared lines, so one waiter's match CAS invalidates
	// its neighbor's spin on a different node.
	_ [47]byte
}

// tryMatch attempts to match node m with fulfiller f, waking m's waiter on
// success. It also returns true if m was already matched with f by a
// helping thread.
func tryMatch[T any](m, f *snode[T]) bool {
	if m.match.CompareAndSwap(nil, f) {
		if p := m.waiter.Load(); p != nil {
			p.Unpark()
		}
		return true
	}
	return m.match.Load() == f
}

// casNext replaces m with mn in n's next pointer.
func (n *snode[T]) casNext(m, mn *snode[T]) bool {
	return n.next.Load() == m && n.next.CompareAndSwap(m, mn)
}

// DualStack is the paper's unfair synchronous queue: a nonblocking,
// contention-free dual stack derived from the Treiber stack, in which the
// most recently arrived waiter is paired first (LIFO). Use NewDualStack to
// create one; a DualStack must not be copied after first use.
type DualStack[T any] struct {
	// head owns its cache line: it is the single CAS target every push,
	// annihilation, and unlink fights over, and the fields below it are
	// read in those same loops.
	head atomic.Pointer[snode[T]]
	_    [56]byte

	// closedMark is the shutdown sentinel: a waiter whose node's match is
	// swung here was evicted by Close and reports the Closed status. It
	// plays the role self-matching plays for cancellation, but from the
	// outside — only the waiter itself may self-match, so Close needs a
	// third party every fulfiller already treats as "not my match".
	closedMark *snode[T]
	// closed is set by Close; the push arm of engageWait refuses to add
	// waiters once it is set.
	closed atomic.Bool

	// npool recycles spare nodes that lost their push race and were never
	// linked — the only nodes whose address provably reached no other
	// thread.
	npool sync.Pool

	timedSpins   int
	untimedSpins int
	// cal, when non-nil, adapts the spin budgets at runtime (zero-value
	// WaitConfig); explicit budgets pin the static policy instead.
	cal *spin.Calibrator
	// m receives the instrumentation counters; nil disables them.
	m *metrics.Handle
	// f injects deterministic faults at the labeled sites; nil disables.
	f *fault.Injector

	// tpool recycles spent composing-caller tickets (see ticket.go); it
	// is last so the hot fields above keep their offsets.
	tpool sync.Pool
}

// NewDualStack returns an empty unfair synchronous queue with the given
// wait policy (use the zero WaitConfig for the paper's defaults).
func NewDualStack[T any](cfg WaitConfig) *DualStack[T] {
	s := &DualStack[T]{closedMark: &snode[T]{}, m: cfg.Metrics, f: cfg.Fault}
	s.timedSpins, s.untimedSpins = cfg.resolve()
	s.cal = cfg.calibrator()
	return s
}

// Metrics returns the stack's instrumentation handle (nil when disabled).
func (q *DualStack[T]) Metrics() *metrics.Handle { return q.m }

// getNode returns a fresh or recycled node with the given mode, its datum
// box empty. Pooled nodes are spares that were never linked (see putSpare),
// so their match, waiter and parker words are pristine.
func (q *DualStack[T]) getNode(mode uint8) *snode[T] {
	if n, _ := q.npool.Get().(*snode[T]); n != nil {
		q.m.Inc(metrics.NodeReuses)
		n.mode = mode
		return n
	}
	q.m.Inc(metrics.NodeAllocs)
	return &snode[T]{mode: mode}
}

// putSpare recycles a node that was NEVER linked into the stack — its push
// CAS failed, or the engage loop completed through another arm before
// attempting it. Such a node's address was never published, so no other
// thread can hold a stale pointer to it and reuse is ABA-free; linked nodes
// must never come here. The link word and the embedded box are scrubbed so
// the pool retains neither stack references nor user values. Nil-safe, so
// call sites can hand over a maybe-built spare unconditionally.
func (q *DualStack[T]) putSpare(s *snode[T]) {
	if s == nil {
		return
	}
	s.next.Store(nil)
	s.item.Store(nil)
	var zero T
	s.box.v = zero
	q.npool.Put(s)
}

// isDead reports whether node n has been abandoned — canceled
// (self-matched) or evicted by Close (matched with the closed sentinel) —
// and should be unlinked rather than fulfilled.
func (q *DualStack[T]) isDead(n *snode[T]) bool {
	m := n.match.Load()
	return m == n || m == q.closedMark
}

// transfer is the shared engine for put and take (Listing 6): isData true
// pushes the datum v, isData false pushes a request. A zero deadline waits
// forever; an expired deadline makes the operation a pure offer/poll. On
// success the returned value is the transferred datum for takes (the zero
// value for puts). The datum rides in the waiting or fulfilling node's
// embedded box, so no separate box circulates.
func (q *DualStack[T]) transfer(isData bool, v T, deadline time.Time, cancel <-chan struct{}) (T, Status) {
	t0 := q.m.Start() // arrival timestamp (zero — no clock read — when uninstrumented)
	var zero T
	mode := modeRequest
	if isData {
		mode = modeData
	}
	canWait := func() bool {
		return deadline.IsZero() || time.Now().Before(deadline)
	}
	imm, s, st := q.engageWait(v, mode, canWait)
	if st != OK {
		q.m.Since(metrics.WastedNs, t0)
		return zero, st
	}
	if s == nil {
		q.m.Since(metrics.HandoffNs, t0)
		return imm, OK // fulfilled a waiting counterpart directly
	}

	if q.closed.Load() {
		// Close may have raced our push and finished its eviction
		// sweep before our node was visible; self-evict so the waiter
		// is never stranded. If a fulfiller matched us first the CAS
		// fails and the transfer completes normally.
		s.match.CompareAndSwap(nil, q.closedMark)
	}
	m, status := q.awaitFulfill(s, deadline, cancel, t0)
	if m == s || m == q.closedMark {
		q.clean(s)
		return zero, status // canceled or evicted by Close
	}
	q.finishMatch(s)
	if mode == modeRequest {
		return m.item.Load().v, OK
	}
	return zero, OK
}

// engageReserve is engageWait with unconditional waiting, for the ticket
// API. A closed stack is reported as the Closed status (node nil).
func (q *DualStack[T]) engageReserve(v T, mode uint8) (T, *snode[T], Status) {
	imm, s, st := q.engageWait(v, mode, func() bool { return true })
	if st == Closed {
		return imm, nil, Closed
	}
	if s != nil && q.closed.Load() {
		// Close may have raced our push and finished its eviction
		// sweep before the node was visible; self-evict (as transfer
		// does) so the reservation is never stranded. If a fulfiller
		// matched us first the CAS fails and the ticket completes
		// normally; otherwise Await reports Closed and Abort succeeds.
		s.match.CompareAndSwap(nil, q.closedMark)
	}
	return imm, s, OK
}

// engageWait is the lock-free half of a transfer: it either completes
// immediately by annihilating with a complementary node (returning the
// exchanged value, node nil) or pushes a waiting node s for the caller to
// await. canWait is consulted at the moment pushing becomes necessary.
//
// The waiting node s and the fulfilling node f are each built at most once
// and carried across retry laps. Either may be recycled through the spare
// pool at any exit where it was never linked; f, however, is abandoned to
// the garbage collector the moment its push succeeds — helpers observed its
// address, so reusing it could match a later wait against a stale helper's
// CAS (the same position ABA the queue's doctrine forbids).
func (q *DualStack[T]) engageWait(v T, mode uint8, canWait func() bool) (T, *snode[T], Status) {
	var zero T
	var s, f *snode[T] // hoisted spares; never linked while held here

	for {
		h := q.head.Load()

		switch {
		case h == nil || h.mode == mode:
			// Empty or same-mode: push and wait (lines 07–16).
			if q.closed.Load() {
				// Shut down: nothing may wait. Checked before
				// canWait so a poll on a closed empty stack
				// reports Closed, not Timeout.
				q.putSpare(s)
				q.putSpare(f)
				return zero, nil, Closed
			}
			if !canWait() {
				if h != nil && q.isDead(h) {
					if q.head.CompareAndSwap(h, h.next.Load()) {
						q.m.Inc(metrics.CleanSweeps)
					}
					continue // retire canceled top, retry
				}
				q.m.Inc(metrics.Timeouts)
				q.putSpare(s)
				q.putSpare(f)
				return zero, nil, Timeout // can't wait
			}
			if s == nil {
				s = q.getNode(mode)
				if mode == modeData {
					s.box.v = v
					s.item.Store(&s.box)
				}
			}
			s.next.Store(h)
			// The closed check above and the push CAS below bracket the
			// push-vs-sweep race: Close may run entirely in between, and
			// only the caller's post-push re-check can then evict s.
			q.f.Preempt(fault.SCloseRacePause)
			if q.f.FailCAS(fault.SPushCAS) || !q.head.CompareAndSwap(h, s) {
				q.m.Inc(metrics.CASFailEnqueue)
				continue // lost push race
			}
			q.putSpare(f) // fulfill spare from an earlier lap, never linked
			return zero, s, OK

		case h.mode&modeFulfilling == 0:
			// Complementary node on top: push a fulfilling node
			// above it (lines 17–25).
			if q.isDead(h) {
				if q.head.CompareAndSwap(h, h.next.Load()) {
					q.m.Inc(metrics.CleanSweeps)
				}
				continue
			}
			if f == nil {
				f = q.getNode(mode | modeFulfilling)
				if mode == modeData {
					f.box.v = v
					f.item.Store(&f.box)
				}
			}
			f.next.Store(h)
			if q.f.FailCAS(fault.SFulfillCAS) || !q.head.CompareAndSwap(h, f) {
				q.m.Inc(metrics.CASFailFulfill)
				continue
			}
			q.f.Preempt(fault.SFulfillPause)
			for {
				m := f.next.Load() // the node we are fulfilling
				if m == nil {
					// All waiters vanished (canceled and
					// cleaned): pop our fulfilling node
					// and restart.
					q.head.CompareAndSwap(f, nil)
					break
				}
				mn := m.next.Load()
				if tryMatch(m, f) {
					q.m.Inc(metrics.Fulfillments)
					q.head.CompareAndSwap(f, mn) // pop both
					q.putSpare(s)                // push spare, never linked
					if mode == modeRequest {
						return m.item.Load().v, nil, OK
					}
					return zero, nil, OK
				}
				// m was canceled under us: unlink it and try
				// the next waiter down.
				q.m.Inc(metrics.CASFailFulfill)
				if f.casNext(m, mn) {
					q.m.Inc(metrics.CleanSweeps)
				}
			}
			// f was published at the top of the stack: helpers may
			// hold its address, so it is tainted for reuse — leave
			// it to the garbage collector and build a fresh one if
			// another fulfill lap is needed.
			f = nil

		default:
			// Top is another thread's fulfilling node: help it
			// complete the annihilation before proceeding with
			// our own work (lines 26–31).
			q.m.Inc(metrics.HelpCollisions)
			q.f.Preempt(fault.SHelpPause)
			m := h.next.Load()
			if m == nil {
				q.head.CompareAndSwap(h, nil)
			} else {
				mn := m.next.Load()
				if tryMatch(m, h) {
					q.head.CompareAndSwap(h, mn)
				} else {
					h.casNext(m, mn)
				}
			}
		}
	}
}

// finishMatch performs the post-annihilation bookkeeping for a node we
// waited on: help our fulfiller pop the pair (Figure 2, step D) and forget
// the waiter reference.
func (q *DualStack[T]) finishMatch(s *snode[T]) {
	if h := q.head.Load(); h != nil && h.next.Load() == s {
		q.head.CompareAndSwap(h, s.next.Load())
	}
	s.waiter.Store(nil)
}

// awaitFulfill waits (spin-then-park) until node s is matched or canceled.
// It returns the match; a self-match means canceled, with status saying
// why. The parker is the node's own (wp), initialized in place and
// published through the waiter word, so entering the slow path allocates
// nothing; fulfilled waits feed the adaptive spin calibrator when one is
// attached.
//
// t0 is the operation's arrival timestamp (from Handle.Start; zero when
// uninstrumented); awaitFulfill owns the wait's latency accounting exactly
// as the queue's does — spin phase at the arming transition, hand-off or
// wasted time at exit with one shared clock read.
func (q *DualStack[T]) awaitFulfill(s *snode[T], deadline time.Time, cancel <-chan struct{}, t0 int64) (*snode[T], Status) {
	spins := 0
	if q.shouldSpin(s) {
		if q.cal != nil {
			if deadline.IsZero() {
				spins = q.cal.Untimed()
			} else {
				spins = q.cal.Timed()
			}
		} else if deadline.IsZero() {
			spins = q.untimedSpins
		} else {
			spins = q.timedSpins
		}
	}
	armed := false  // wp initialized and published
	parked := false // entered at least one slow-path wait
	status := Timeout
	spun := int64(0) // spins batched locally; one Add on exit keeps the hot loop free of atomics
	for i := 0; ; i++ {
		if m := s.match.Load(); m != nil {
			q.m.Add(metrics.Spins, spun)
			if t0 != 0 {
				// One clock read for both views of the wait (see the
				// queue's awaitFulfill).
				d := time.Duration(metrics.Nanos() - t0)
				if !armed {
					q.m.Record(metrics.SpinNs, d)
				}
				if m == q.closedMark || m == s {
					q.m.Record(metrics.WastedNs, d)
				} else {
					q.m.Record(metrics.HandoffNs, d)
				}
			}
			if m == q.closedMark {
				q.m.Inc(metrics.ClosedWakeups)
				return m, Closed
			}
			if m == s {
				if status == Canceled {
					q.m.Inc(metrics.Cancellations)
				} else {
					q.m.Inc(metrics.Timeouts)
				}
				return m, status
			}
			if q.cal != nil {
				q.cal.Observe(int(spun), parked)
				q.m.Set(metrics.SpinBudget, int64(q.cal.Untimed()))
			}
			return m, OK
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			status = Timeout
			s.match.CompareAndSwap(nil, s)
			continue // reload match: cancel may have lost the race
		}
		if cancel != nil {
			select {
			case <-cancel:
				status = Canceled
				s.match.CompareAndSwap(nil, s)
				continue
			default:
			}
		}
		if spins > 0 {
			// Keep spinning while we remain plausibly next in
			// line; the budget still decays so a preempted
			// fulfiller cannot strand us spinning.
			if q.shouldSpin(s) {
				spins--
				spun++
				spin.Pause(i)
				continue
			}
			spins = 0
			continue
		}
		if !armed {
			spin.EndPhase(q.m, t0) // spin budget exhausted: the busy phase ends here
			s.wp.Init(q.m, q.f)
			s.waiter.Store(&s.wp)
			armed = true
			continue // re-check match before first park
		}
		parked = true
		switch s.wp.Wait(deadline, cancel) {
		case park.Unparked:
			// Re-read match.
		case park.DeadlineExceeded:
			status = Timeout
			s.match.CompareAndSwap(nil, s)
		case park.Canceled:
			status = Canceled
			s.match.CompareAndSwap(nil, s)
		}
	}
}

// shouldSpin reports whether node s is at or adjacent to the top of the
// stack, i.e. likely to be fulfilled imminently.
func (q *DualStack[T]) shouldSpin(s *snode[T]) bool {
	h := q.head.Load()
	return h == s || h == nil || h.mode&modeFulfilling != 0
}

// clean unlinks the canceled node s from the stack. Unlike the queue there
// is no tail obstruction: we simply sweep from the top down to s's
// (approximate) successor, unsplicing canceled nodes along the way. The
// successor is recorded first so the sweep is bounded even while other
// threads push above us.
func (q *DualStack[T]) clean(s *snode[T]) {
	s.item.Store(nil)
	s.waiter.Store(nil)
	// Scrub the abandoned datum so the dead node, which may linger linked
	// until a later sweep, does not pin the caller's value. Safe because
	// the self-match (or eviction) CAS already won: no fulfiller will
	// read this box.
	var zero T
	s.box.v = zero

	past := s.next.Load()
	if past != nil && q.isDead(past) {
		past = past.next.Load()
	}

	// Absorb canceled nodes at the head.
	p := q.head.Load()
	for p != nil && p != past && q.isDead(p) {
		if q.head.CompareAndSwap(p, p.next.Load()) {
			q.m.Inc(metrics.CleanSweeps)
		}
		p = q.head.Load()
	}
	// Unsplice embedded canceled nodes between the head and past.
	for p != nil && p != past {
		n := p.next.Load()
		if n != nil && q.isDead(n) {
			if q.f.FailCAS(fault.SCleanCAS) || !p.casNext(n, n.next.Load()) {
				q.m.Inc(metrics.CASFailClean)
			} else {
				q.m.Inc(metrics.CleanSweeps)
			}
		} else {
			p = n
		}
	}
}

// Close shuts the stack down gracefully: every waiter parked or spinning
// in the structure is woken and returns the Closed status, and every
// subsequent operation observes Closed (status-returning operations
// report it; demand operations panic). Close is idempotent and safe to
// call concurrently with any operation; it does not block on waiters.
//
// Close linearizes against in-flight annihilations without locking: both
// a fulfiller and the close sweep resolve a waiter with a single CAS on
// the node's match word (the fulfiller installs itself, the sweep
// installs the closed sentinel), so each waiter is either transferred or
// evicted, never both.
func (q *DualStack[T]) Close() {
	q.closed.Store(true)
	// Eviction sweep. No new waiters can be pushed once closed is set
	// (the push arm re-checks it, and transfer self-evicts nodes that
	// raced the sweep). Popped nodes keep their next pointers, so one
	// walk reaches every node that was ever below the observed head.
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		if n.mode&modeFulfilling != 0 {
			continue // an in-flight fulfiller; its own thread completes or retries
		}
		if n.match.CompareAndSwap(nil, q.closedMark) {
			if p := n.waiter.Load(); p != nil {
				p.Unpark()
			}
		}
	}
}

// Closed reports whether Close has been called.
func (q *DualStack[T]) Closed() bool { return q.closed.Load() }

// Put transfers v to a consumer, waiting as long as necessary for one to
// arrive. Put panics if the stack is closed while waiting (or was already
// closed), since it has no status channel to report Closed through.
func (q *DualStack[T]) Put(v T) {
	if _, st := q.transfer(true, v, time.Time{}, nil); st == Closed {
		panic(errClosedDemand)
	}
}

// PutDeadline transfers v to a consumer, giving up at the deadline (zero
// means never) or when cancel fires (nil means never).
func (q *DualStack[T]) PutDeadline(v T, deadline time.Time, cancel <-chan struct{}) Status {
	_, st := q.transfer(true, v, deadline, cancel)
	return st
}

// Offer transfers v only if a consumer is already waiting.
func (q *DualStack[T]) Offer(v T) bool {
	_, st := q.transfer(true, v, deadlineFor(0), nil)
	return st == OK
}

// OfferTimeout transfers v, waiting up to d for a consumer.
func (q *DualStack[T]) OfferTimeout(v T, d time.Duration) bool {
	_, st := q.transfer(true, v, deadlineFor(d), nil)
	return st == OK
}

// Take receives a value from a producer, waiting as long as necessary for
// one to arrive. Take panics if the stack is closed while waiting (or was
// already closed), rather than inventing a zero value.
func (q *DualStack[T]) Take() T {
	v, st := q.transfer(false, *new(T), time.Time{}, nil)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v
}

// TakeDeadline receives a value, giving up at the deadline (zero means
// never) or when cancel fires (nil means never).
func (q *DualStack[T]) TakeDeadline(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	return q.transfer(false, *new(T), deadline, cancel)
}

// Poll receives a value only if a producer is already waiting.
func (q *DualStack[T]) Poll() (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(0), nil)
	return v, st == OK
}

// PollTimeout receives a value, waiting up to d for a producer.
func (q *DualStack[T]) PollTimeout(d time.Duration) (T, bool) {
	v, st := q.transfer(false, *new(T), deadlineFor(d), nil)
	return v, st == OK
}

// observe classifies the stack's current content by its topmost node
// that is not dead. Dead (canceled, aborted or evicted) nodes at the top
// do not end the look — live waiters may sit below them — so the walk
// steps down past them (unspliced and popped nodes keep their next
// links). Like the queue's observe, the answer errs toward reporting a
// waiter (a node already being fulfilled still counts), never toward
// hiding one.
func (q *DualStack[T]) observe() (data, reservations bool) {
	for n := q.head.Load(); n != nil; n = n.next.Load() {
		if !q.isDead(n) {
			d := n.mode&^modeFulfilling == modeData
			return d, !d
		}
	}
	return false, false
}

// HasWaitingProducer reports whether a producer was observed waiting. It
// looks below a dead top, so it never hides a producer whose push
// completed before the call; it may report one that is gone a moment
// later.
func (q *DualStack[T]) HasWaitingProducer() bool { d, _ := q.observe(); return d }

// HasWaitingConsumer reports whether a consumer was observed waiting, with
// the same guarantee as HasWaitingProducer: it looks below a dead top and
// never hides a consumer.
func (q *DualStack[T]) HasWaitingConsumer() bool { _, r := q.observe(); return r }

// IsEmpty reports whether the stack was observed empty.
func (q *DualStack[T]) IsEmpty() bool { return q.head.Load() == nil }

// Len counts the live (unmatched, non-canceled) waiting nodes by walking
// the stack. Linear time and only a snapshot under concurrency; intended
// for tests and monitoring.
func (q *DualStack[T]) Len() int {
	n := 0
	for cur := q.head.Load(); cur != nil; cur = cur.next.Load() {
		if cur.match.Load() == nil && cur.mode&modeFulfilling == 0 {
			n++
		}
	}
	return n
}
