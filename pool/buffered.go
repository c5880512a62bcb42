package pool

import (
	"time"

	"synchq/internal/core"
)

// buffered adapts the paper's §5 TransferQueue as an unbounded FIFO task
// queue: Offer is an asynchronous deposit that never waits for a worker,
// and idle workers wait in arrival order for the oldest deposit. Note the
// symmetry with the synchronous configuration: the same fair dual queue
// backs both, differing only in whether producers wait.
//
// The adapter deliberately has no Close method: the pool never closes a
// buffered queue, so shutdown wakes idle workers through PollWait's cancel
// channel and a forced Drain reclaims backlog through the pool's own
// pending list.
type buffered struct {
	q *core.TransferQueue[Task]
}

// NewBuffered returns an unbounded buffered task queue for use with New —
// the work-queue configuration of a fixed pool, as opposed to the
// synchronous hand-off of a cached pool. Deposits are TransferQueue Puts.
// The returned queue implements WaitQueue, so pools built on it get
// cancelable idle polls (prompt, poison-free shutdown wake-ups).
func NewBuffered() Queue {
	return buffered{q: core.NewTransferQueue[Task](core.WaitConfig{})}
}

// Offer deposits t; it always succeeds (the buffer is unbounded).
func (b buffered) Offer(t Task) bool { return b.q.Put(t) == core.OK }

// PollTimeout receives the oldest buffered task, waiting up to d for one
// to arrive.
func (b buffered) PollTimeout(d time.Duration) (Task, bool) { return b.q.PollTimeout(d) }

// OfferWait deposits t; an unbounded buffer never makes producers wait,
// so the deadline and cancel channel are irrelevant.
func (b buffered) OfferWait(t Task, _ time.Time, _ <-chan struct{}) bool { return b.Offer(t) }

// PollWait receives the oldest buffered task, waiting until the deadline
// (zero = forever) or the cancel channel fires.
func (b buffered) PollWait(deadline time.Time, cancel <-chan struct{}) (Task, bool) {
	t, st := b.q.TakeDeadline(deadline, cancel)
	return t, st == core.OK
}

// DrainTo appends up to max immediately available buffered tasks to buf
// without waiting — the BatchQueue facet that lets a pool worker claim a
// small burst of backlog in one wakeup.
func (b buffered) DrainTo(buf []Task, max int) []Task {
	buf, _ = b.q.DrainTo(buf, max)
	return buf
}
