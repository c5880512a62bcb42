package core

import (
	"time"

	"synchq/internal/metrics"
)

// This file exposes the paper's §2.2 dual-data-structure interface as
// first-class operations: partial methods split into a request that
// registers a reservation and follow-ups that check it (Listing 2).
//
//	reservation r = Q.dequeue_reserve();     ->  v, tk, ok := q.TakeReserve()
//	d = Q.dequeue_followup(r);               ->  v, ok := tk.TryFollowup()
//	Q.dequeue_abort(r);                      ->  tk.Abort()
//
// The decisive property is contention freedom: an unsuccessful
// TryFollowup reads only the reservation's own node (a location no other
// thread writes until fulfillment), so polling a reservation performs a
// constant number of remote memory accesses across all unsuccessful
// follow-ups — unlike retrying a totalized operation, which hammers the
// structure's head on every attempt.
//
// A Ticket is owned by the goroutine that created it and must not be used
// concurrently; this matches the paper's model, in which the requester
// itself performs the follow-ups.
//
// Tickets issued to a composing caller through ReserveTakeStatus and
// ReservePutStatus (the shard fabric's commit path) are recycled: a
// pooled ticket returns to its structure's ticket pool the moment a
// follow-up, Await or Abort spends it, so the caller must not touch it
// again. That is ABA-free where pooling linked nodes is not — only the
// owning goroutine ever holds a ticket's address, while nodes are shared
// with every traverser — and it keeps a composed hand-off at the cost of
// the core's own node, with no ticket allocation per waiter. Tickets
// handed to users (TakeReserve, PutReserve, ReserveTake, ReservePut) are
// never pooled: a stale user reference must still hit the spent-ticket
// panics.

// QueueTicket is a pending reservation on a DualQueue — either a request
// for a value (from TakeReserve) or an offered value awaiting a consumer
// (from PutReserve).
type QueueTicket[T any] struct {
	q      *DualQueue[T]
	node   *qnode[T]
	pred   *qnode[T]
	e      *qitem[T] // the node's initial item state
	t0     int64     // reservation arrival, for the latency histograms
	done   bool      // a follow-up already consumed the outcome
	pooled bool      // recycled through q.tpool once spent
}

// spend marks t spent; a pooled ticket is scrubbed and recycled.
func (t *QueueTicket[T]) spend() {
	t.done = true
	if t.pooled {
		q := t.q
		*t = QueueTicket[T]{}
		q.tpool.Put(t)
	}
}

// ticket issues a ticket for the linked node, from the ticket pool when
// pooled.
func (q *DualQueue[T]) ticket(node, pred *qnode[T], e *qitem[T], t0 int64, pooled bool) *QueueTicket[T] {
	if pooled {
		if t, _ := q.tpool.Get().(*QueueTicket[T]); t != nil {
			*t = QueueTicket[T]{q: q, node: node, pred: pred, e: e, t0: t0, pooled: true}
			return t
		}
	}
	return &QueueTicket[T]{q: q, node: node, pred: pred, e: e, t0: t0, pooled: pooled}
}

// takeReserve is TakeReserve with the Closed status reported instead of
// panicking; pooled selects a recycled ticket.
func (q *DualQueue[T]) takeReserve(pooled bool) (T, *QueueTicket[T], bool, Status) {
	t0 := q.m.Start()
	var zero T
	imm, node, pred, st := q.engage(nil, func() bool { return true }, false)
	if st == Closed {
		return zero, nil, false, Closed
	}
	if node == nil {
		// Consume the delivered value and recycle the fulfiller's box.
		q.m.Since(metrics.HandoffNs, t0)
		v := imm.v
		q.putBox(imm)
		return v, nil, true, OK
	}
	if q.closed.Load() {
		// Close may have raced our enqueue and finished its eviction
		// sweep before the node was linked; self-evict (as transfer
		// does) so the reservation is never stranded. If a fulfiller
		// got here first the CAS fails and the ticket completes
		// normally; otherwise Await reports Closed and Abort succeeds.
		node.item.CompareAndSwap(nil, q.closedSent)
	}
	return zero, q.ticket(node, pred, nil, t0, pooled), false, OK
}

// TakeReserve registers a request for a value (the request operation,
// which linearizes the caller's place in line). If a producer was already
// waiting, its value is returned at once with ok true and a nil ticket;
// otherwise ok is false and the ticket tracks the pending reservation. It
// panics if the queue is closed, like the demand operations.
func (q *DualQueue[T]) TakeReserve() (T, *QueueTicket[T], bool) {
	v, tk, ok, st := q.takeReserve(false)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v, tk, ok
}

// putReserve is PutReserve with the Closed status reported instead of
// panicking; pooled selects a recycled ticket.
func (q *DualQueue[T]) putReserve(v T, pooled bool) (*QueueTicket[T], bool, Status) {
	t0 := q.m.Start()
	e := q.getBox(v)
	_, node, pred, st := q.engage(e, func() bool { return true }, false)
	if st == Closed {
		q.putBox(e)
		return nil, false, Closed
	}
	if node == nil {
		q.m.Since(metrics.HandoffNs, t0)
		return nil, true, OK
	}
	if q.closed.Load() {
		// Same enqueue-vs-sweep window as takeReserve: self-evict so
		// the offer is never stranded by a Close that missed it.
		node.item.CompareAndSwap(e, q.closedSent)
	}
	return q.ticket(node, pred, e, t0, pooled), false, OK
}

// PutReserve offers v to a future consumer (the request operation). If a
// consumer was already waiting, v is delivered at once and ok is true
// with a nil ticket; otherwise ok is false and the ticket tracks the
// pending offer. It panics if the queue is closed.
func (q *DualQueue[T]) PutReserve(v T) (*QueueTicket[T], bool) {
	tk, ok, st := q.putReserve(v, false)
	if st == Closed {
		panic(errClosedDemand)
	}
	return tk, ok
}

// TryFollowup checks, without blocking, whether the reservation has been
// fulfilled. For a take ticket the fulfilled value is returned; for a put
// ticket the returned value is the zero value and ok simply reports
// delivery. An unsuccessful TryFollowup touches no shared state beyond
// the ticket's own node. After a successful TryFollowup the ticket is
// spent.
func (t *QueueTicket[T]) TryFollowup() (T, bool) {
	var v T
	if t.done {
		panic("core: follow-up on a spent ticket")
	}
	x := t.node.item.Load()
	if x == t.e || t.q.isDead(x) {
		// Still pending, aborted, or evicted by Close. A closed
		// reservation never reports true; collect the Closed status
		// with Await, which returns immediately.
		return v, false
	}
	t.q.m.Since(metrics.HandoffNs, t.t0)
	t.q.finish(t.node, t.pred, x)
	if x != nil {
		// Take ticket: consume the delivered value and recycle the
		// fulfiller's box. (A put ticket's box belongs to the taker.)
		v = x.v
		t.q.putBox(x)
	}
	t.spend()
	return v, true
}

// Await blocks until the reservation is fulfilled, the deadline passes
// (zero deadline: never), or cancel fires (nil: never) — the "demand"
// completion built from spin-then-park waiting. On Timeout/Canceled the
// reservation has been aborted and the ticket is spent.
func (t *QueueTicket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	var v T
	if t.done {
		panic("core: await on a spent ticket")
	}
	x, status := t.q.awaitFulfill(t.node, t.e, deadline, cancel, t.t0)
	if t.q.isDead(x) {
		t.q.clean(t.pred, t.node)
		t.q.putBox(t.e) // abandoned offer: the datum never transferred
	} else {
		t.q.finish(t.node, t.pred, x)
		if x != nil {
			v = x.v
			t.q.putBox(x)
		}
	}
	t.spend()
	return v, status
}

// Abort attempts to cancel the reservation. It returns true if the
// reservation was canceled (the ticket is spent) and false if a
// counterpart fulfilled it first — in which case the outcome must still be
// collected with TryFollowup, exactly as in the paper's Listing 2, whose
// abort path re-runs the follow-up. A reservation evicted by Close also
// aborts successfully: no value was transferred.
func (t *QueueTicket[T]) Abort() bool {
	if t.done {
		panic("core: abort of a spent ticket")
	}
	if t.node.item.CompareAndSwap(t.e, t.q.canceled) ||
		t.node.item.Load() == t.q.closedSent {
		t.q.clean(t.pred, t.node)
		t.q.putBox(t.e) // aborted offer: the datum never transferred
		t.spend()
		return true
	}
	return false
}

// StackTicket is a pending reservation on a DualStack.
type StackTicket[T any] struct {
	q      *DualStack[T]
	node   *snode[T]
	t0     int64 // reservation arrival, for the latency histograms
	done   bool
	pooled bool // recycled through q.tpool once spent
}

// spend marks t spent; a pooled ticket is scrubbed and recycled.
func (t *StackTicket[T]) spend() {
	t.done = true
	if t.pooled {
		q := t.q
		*t = StackTicket[T]{}
		q.tpool.Put(t)
	}
}

// TakeReserve registers a request for a value on the stack. If a producer
// was already waiting (or a fulfillment completed during the attempt), the
// value is returned at once with ok true and a nil ticket. It panics if
// the stack is closed.
func (q *DualStack[T]) TakeReserve() (T, *StackTicket[T], bool) {
	v, tk, ok, st := q.reserve(*new(T), modeRequest, false)
	if st == Closed {
		panic(errClosedDemand)
	}
	return v, tk, ok
}

// PutReserve offers v on the stack. If a consumer was already waiting, v
// is delivered at once and ok is true with a nil ticket. It panics if the
// stack is closed.
func (q *DualStack[T]) PutReserve(v T) (*StackTicket[T], bool) {
	_, tk, ok, st := q.reserve(v, modeData, false)
	if st == Closed {
		panic(errClosedDemand)
	}
	return tk, ok
}

// reserve is the request operation behind both stack reservations, with
// the Closed status reported instead of panicking; pooled selects a
// recycled ticket.
func (q *DualStack[T]) reserve(v T, mode uint8, pooled bool) (T, *StackTicket[T], bool, Status) {
	t0 := q.m.Start()
	imm, node, st := q.engageReserve(v, mode)
	if st == Closed {
		return imm, nil, false, Closed
	}
	if node == nil {
		q.m.Since(metrics.HandoffNs, t0)
		return imm, nil, true, OK
	}
	if pooled {
		if t, _ := q.tpool.Get().(*StackTicket[T]); t != nil {
			*t = StackTicket[T]{q: q, node: node, t0: t0, pooled: true}
			return imm, t, false, OK
		}
	}
	return imm, &StackTicket[T]{q: q, node: node, t0: t0, pooled: pooled}, false, OK
}

// TryFollowup checks, without blocking, whether the reservation has been
// annihilated with a counterpart. Unsuccessful follow-ups read only the
// ticket's own node's match word.
func (t *StackTicket[T]) TryFollowup() (T, bool) {
	var v T
	if t.done {
		panic("core: follow-up on a spent ticket")
	}
	m := t.node.match.Load()
	if m == nil || m == t.node || m == t.q.closedMark {
		// Pending, aborted, or evicted by Close; a closed reservation
		// reports its Closed status through Await.
		return v, false
	}
	t.q.m.Since(metrics.HandoffNs, t.t0)
	t.q.finishMatch(t.node)
	if t.node.mode == modeRequest {
		v = m.item.Load().v
	}
	t.spend()
	return v, true
}

// Await blocks until the reservation is matched, the deadline passes, or
// cancel fires. On Timeout/Canceled the reservation has been aborted and
// the ticket is spent.
func (t *StackTicket[T]) Await(deadline time.Time, cancel <-chan struct{}) (T, Status) {
	var v T
	if t.done {
		panic("core: await on a spent ticket")
	}
	m, status := t.q.awaitFulfill(t.node, deadline, cancel, t.t0)
	if m == t.node || m == t.q.closedMark {
		t.q.clean(t.node)
	} else {
		t.q.finishMatch(t.node)
		if t.node.mode == modeRequest {
			v = m.item.Load().v
		}
	}
	t.spend()
	return v, status
}

// Abort attempts to cancel the reservation; false means a counterpart
// matched it first and TryFollowup must be used to collect the outcome. A
// reservation evicted by Close also aborts successfully: no value was
// transferred.
func (t *StackTicket[T]) Abort() bool {
	if t.done {
		panic("core: abort of a spent ticket")
	}
	if t.node.match.CompareAndSwap(nil, t.node) ||
		t.node.match.Load() == t.q.closedMark {
		t.q.clean(t.node)
		t.spend()
		return true
	}
	return false
}

// Ticket is the interface satisfied by both structures' reservation
// tickets, so callers can be written against either pairing discipline.
type Ticket[T any] interface {
	// TryFollowup checks for fulfillment without blocking; an
	// unsuccessful call is contention-free.
	TryFollowup() (T, bool)
	// Await blocks until fulfillment, the deadline (zero: never), or
	// cancel (nil: never).
	Await(deadline time.Time, cancel <-chan struct{}) (T, Status)
	// Abort cancels the reservation; false means it was fulfilled first
	// and TryFollowup must collect the outcome.
	Abort() bool
}

// ReserveTake is TakeReserve with the ticket as the shared Ticket
// interface (nil ticket when ok is true).
func (q *DualQueue[T]) ReserveTake() (T, Ticket[T], bool) {
	v, tk, ok := q.TakeReserve()
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut is PutReserve with the ticket as the shared Ticket interface.
func (q *DualQueue[T]) ReservePut(v T) (Ticket[T], bool) {
	tk, ok := q.PutReserve(v)
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}

// ReserveTake is TakeReserve with the ticket as the shared Ticket
// interface (nil ticket when ok is true).
func (q *DualStack[T]) ReserveTake() (T, Ticket[T], bool) {
	v, tk, ok := q.TakeReserve()
	if tk == nil {
		return v, nil, ok
	}
	return v, tk, ok
}

// ReservePut is PutReserve with the ticket as the shared Ticket interface.
func (q *DualStack[T]) ReservePut(v T) (Ticket[T], bool) {
	tk, ok := q.PutReserve(v)
	if tk == nil {
		return nil, ok
	}
	return tk, ok
}

// ReserveTakeStatus is the composing caller's take reservation: a closed
// queue is reported as the Closed status instead of a panic, and the
// ticket is pooled — spending it (a successful TryFollowup, Await, or a
// successful Abort) hands it back, so the caller must not touch it again.
func (q *DualQueue[T]) ReserveTakeStatus() (T, Ticket[T], bool, Status) {
	v, tk, ok, st := q.takeReserve(true)
	if tk == nil {
		return v, nil, ok, st
	}
	return v, tk, ok, st
}

// ReservePutStatus is the composing caller's put reservation, with the
// same Closed reporting and pooled-ticket contract as ReserveTakeStatus.
func (q *DualQueue[T]) ReservePutStatus(v T) (Ticket[T], bool, Status) {
	tk, ok, st := q.putReserve(v, true)
	if tk == nil {
		return nil, ok, st
	}
	return tk, ok, st
}

// ReserveTakeStatus is the composing caller's take reservation on the
// stack (see DualQueue.ReserveTakeStatus).
func (q *DualStack[T]) ReserveTakeStatus() (T, Ticket[T], bool, Status) {
	v, tk, ok, st := q.reserve(*new(T), modeRequest, true)
	if tk == nil {
		return v, nil, ok, st
	}
	return v, tk, ok, st
}

// ReservePutStatus is the composing caller's put reservation on the stack
// (see DualQueue.ReserveTakeStatus).
func (q *DualStack[T]) ReservePutStatus(v T) (Ticket[T], bool, Status) {
	_, tk, ok, st := q.reserve(v, modeData, true)
	if tk == nil {
		return nil, ok, st
	}
	return tk, ok, st
}
