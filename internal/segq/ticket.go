package segq

import (
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
)

// Reservation tickets: the request half of a split transfer, mirroring
// internal/core's QueueTicket/StackTicket so the segmented core satisfies
// the same composition surfaces (the shard fabric's rescue scans, the
// public SynchronousQueue reservation API).
//
// A reservation is just an installed cell whose owner walked away instead
// of waiting: the ticket remembers the cell, and TryFollowup/Await/Abort
// play the same state-machine arcs awaitCell plays inline.

// Ticket tracks one pending reservation on a segmented queue.
type Ticket[T any] struct {
	q         *Queue[T]
	s         *segment[T]
	c         *cell[T]
	i         uint64
	installed uint32
	isPut     bool
	t0        int64
	done      bool
	pooled    bool // recycled through q.tpool once spent (see core's ticket.go)
}

// spend marks t spent; a pooled ticket is scrubbed and recycled.
func (t *Ticket[T]) spend() {
	t.done = true
	if t.pooled {
		q := t.q
		*t = Ticket[T]{}
		q.tpool.Put(t)
	}
}

// reserve claims an index and installs this side in its cell without
// waiting. Unlike transfer it never poisons: a reservation's patience is
// decided later, by Await or Abort.
func (q *Queue[T]) reserve(isPut bool, v T) (T, *Ticket[T], bool, Status) {
	return q.reserveCell(isPut, v, false)
}

// reserveCell is reserve with a choice of ticket: pooled selects a
// recycled one, for composing callers that hand it back by spending it.
func (q *Queue[T]) reserveCell(isPut bool, v T, pooled bool) (T, *Ticket[T], bool, Status) {
	t0 := q.m.Start()
	var zero T
	if q.closed.Load() {
		return zero, nil, false, core.Closed
	}
	ctr, _, hint := q.side(isPut)
	for {
		i := ctr.Add(1) - 1
		s := q.findSeg(hint, i>>segShift)
		if s.id != i>>segShift {
			q.m.Inc(metrics.CleanSweeps)
			q.skipTo(ctr, s.id<<segShift)
			continue
		}
		c := &s.cells[i&segMask]
	resolve:
		for {
			switch st := c.state.Load(); st {
			case cEmpty:
				// Value first; never touch the shared parker — it was
				// armed at segment birth, and a reset by an install-CAS
				// loser would wipe a parked counterpart's state (see
				// resolveArrival).
				if isPut {
					c.v = v
				}
				installed := cWaiter
				if isPut {
					installed = cItem
				}
				q.f.Preempt(fault.SegCloseRacePause)
				if q.f.FailCAS(fault.SegInstallCAS) || !c.state.CompareAndSwap(cEmpty, installed) {
					q.m.Inc(metrics.CASFailEnqueue)
					continue
				}
				if q.closed.Load() {
					// Same install-vs-sweep window as transfer: self-
					// evict so the reservation is never stranded. If a
					// fulfiller got here first the CAS fails and the
					// ticket completes normally; otherwise Await
					// reports Closed and Abort succeeds.
					if c.state.CompareAndSwap(installed, cClosed) {
						q.resolveCell(s)
						if isPut {
							c.v = zero
						}
					}
				}
				var tk *Ticket[T]
				if pooled {
					tk, _ = q.tpool.Get().(*Ticket[T])
				}
				if tk == nil {
					tk = new(Ticket[T])
				}
				*tk = Ticket[T]{q: q, s: s, c: c, i: i, installed: installed, isPut: isPut, t0: t0, pooled: pooled}
				return zero, tk, false, core.OK

			case cItem:
				if isPut {
					panic("segq: producer cell claimed twice")
				}
				if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cItem, cDone) {
					q.m.Inc(metrics.CASFailFulfill)
					continue
				}
				q.resolveCell(s)
				val := c.v
				c.v = zero
				q.m.Inc(metrics.Fulfillments)
				q.f.Preempt(fault.SegResolvePause)
				c.wp.Unpark()
				q.m.Since(metrics.HandoffNs, t0)
				return val, nil, true, core.OK

			case cWaiter:
				if !isPut {
					panic("segq: consumer cell claimed twice")
				}
				c.v = v
				if q.f.FailCAS(fault.SegResolveCAS) || !c.state.CompareAndSwap(cWaiter, cDone) {
					q.m.Inc(metrics.CASFailFulfill)
					if st := c.state.Load(); st == cBroken || st == cClosed {
						c.v = zero
					}
					continue
				}
				q.resolveCell(s)
				q.m.Inc(metrics.Fulfillments)
				q.f.Preempt(fault.SegResolvePause)
				c.wp.Unpark()
				q.m.Since(metrics.HandoffNs, t0)
				return zero, nil, true, core.OK

			case cBroken:
				break resolve // fresh index

			case cDone:
				panic("segq: cell resolved twice")

			default: // cClosed
				return zero, nil, false, core.Closed
			}
		}
	}
}

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. A closed or aborted reservation never reports true; collect
// the status with Await, which returns immediately.
func (t *Ticket[T]) TryFollowup() (T, bool) {
	var zero T
	if t.done {
		panic("segq: follow-up on a spent ticket")
	}
	if t.c.state.Load() != cDone {
		return zero, false
	}
	t.q.m.Since(metrics.HandoffNs, t.t0)
	v := zero
	if !t.isPut {
		v = t.c.v
		t.c.v = zero
	}
	t.spend()
	return v, true
}

// Await blocks until fulfillment, the deadline (zero: never), or cancel
// (nil: never). The ticket is spent afterward whatever the outcome.
func (t *Ticket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	if t.done {
		panic("segq: await on a spent ticket")
	}
	_, other, _ := t.q.side(t.isPut)
	v, st := t.q.awaitCell(t.s, t.c, t.i, t.installed, t.isPut, deadline, cancel, t.t0, other)
	t.spend()
	return v, st
}

// Abort cancels the reservation; false means it was fulfilled first and
// TryFollowup must collect the outcome. A reservation evicted by Close
// aborts successfully (there is nothing to collect).
func (t *Ticket[T]) Abort() bool {
	if t.done {
		panic("segq: abort on a spent ticket")
	}
	var zero T
	for {
		switch st := t.c.state.Load(); st {
		case t.installed:
			if t.c.state.CompareAndSwap(t.installed, cBroken) {
				t.q.resolveCell(t.s)
				if t.isPut {
					t.c.v = zero
				}
				t.q.m.Inc(metrics.Cancellations)
				t.spend()
				return true
			}
		case cClosed:
			t.spend()
			return true
		default: // cDone
			return false
		}
	}
}

// ReserveTake registers a request for a value; if a producer was already
// waiting its value is returned at once with ok true and a nil ticket. It
// panics if the queue is closed, like the demand operations.
func (q *Queue[T]) ReserveTake() (T, core.Ticket[T], bool) {
	v, tk, ok, st := q.reserve(false, *new(T))
	if st == core.Closed {
		panic(errClosedDemand)
	}
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut offers v to a future consumer; if a consumer was already
// waiting, v is delivered at once with ok true and a nil ticket. It
// panics if the queue is closed.
func (q *Queue[T]) ReservePut(v T) (core.Ticket[T], bool) {
	_, tk, ok, st := q.reserve(true, v)
	if st == core.Closed {
		panic(errClosedDemand)
	}
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}

// ReserveTakeStatus is ReserveTake for composing callers (the shard
// fabric): a closed queue reports Closed instead of panicking, and the
// ticket is pooled — spending it hands it back, so the caller must not
// touch it again.
func (q *Queue[T]) ReserveTakeStatus() (T, core.Ticket[T], bool, Status) {
	v, tk, ok, st := q.reserveCell(false, *new(T), true)
	if tk == nil {
		return v, nil, ok, st
	}
	return v, tk, ok, st
}

// ReservePutStatus is ReservePut for composing callers, with the same
// Closed reporting and pooled-ticket contract as ReserveTakeStatus.
func (q *Queue[T]) ReservePutStatus(v T) (core.Ticket[T], bool, Status) {
	_, tk, ok, st := q.reserveCell(true, v, true)
	if tk == nil {
		return nil, ok, st
	}
	return tk, ok, st
}
