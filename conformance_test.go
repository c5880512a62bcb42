package synchq_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synchq"
)

// Conformance suite: every implementation reachable through the public API
// must satisfy the synchronous hand-off contract. Queue implementations
// get the demand contract; TimedQueue implementations additionally get the
// polar/timed contract.

func demandImpls() map[string]func() synchq.Queue[int] {
	return map[string]func() synchq.Queue[int]{
		"fair":        func() synchq.Queue[int] { return synchq.New[int](synchq.Fair(true)) },
		"unfair":      func() synchq.Queue[int] { return synchq.New[int](synchq.Fair(false)) },
		"naive":       func() synchq.Queue[int] { return synchq.NewNaive[int]() },
		"hanson":      func() synchq.Queue[int] { return synchq.NewHanson[int]() },
		"hansonfast":  func() synchq.Queue[int] { return synchq.NewHansonFast[int]() },
		"java5fair":   func() synchq.Queue[int] { return synchq.NewJava5Fair[int]() },
		"java5unfair": func() synchq.Queue[int] { return synchq.NewJava5Unfair[int]() },
		"gochannel":   func() synchq.Queue[int] { return synchq.NewGoChannel[int]() },
		"eliminating": func() synchq.Queue[int] {
			return synchq.NewEliminatingQueue[int](synchq.Fair(false), synchq.Eliminating(2, 20*time.Microsecond))
		},
		"transfer":  func() synchq.Queue[int] { return transferAsQueue{synchq.NewTransferQueue[int]()} },
		"segmented": func() synchq.Queue[int] { return synchq.New[int](synchq.Segmented()) },
		"segmented+sharded": func() synchq.Queue[int] {
			return synchq.New[int](synchq.Segmented(), synchq.Sharded(4))
		},
	}
}

// transferAsQueue narrows TransferQueue to the demand contract using its
// synchronous transfer mode.
type transferAsQueue struct{ q *synchq.TransferQueue[int] }

func (t transferAsQueue) Put(v int) { t.q.Transfer(v) }
func (t transferAsQueue) Take() int { return t.q.Take() }

func timedImpls() map[string]func() synchq.TimedQueue[int] {
	return map[string]func() synchq.TimedQueue[int]{
		"fair":        func() synchq.TimedQueue[int] { return synchq.New[int](synchq.Fair(true)) },
		"unfair":      func() synchq.TimedQueue[int] { return synchq.New[int](synchq.Fair(false)) },
		"java5fair":   func() synchq.TimedQueue[int] { return synchq.NewJava5Fair[int]() },
		"java5unfair": func() synchq.TimedQueue[int] { return synchq.NewJava5Unfair[int]() },
		"gochannel":   func() synchq.TimedQueue[int] { return synchq.NewGoChannel[int]() },
		"eliminating": func() synchq.TimedQueue[int] {
			return synchq.NewEliminatingQueue[int](synchq.Fair(false), synchq.Eliminating(2, 20*time.Microsecond))
		},
		"transfer":  func() synchq.TimedQueue[int] { return synchq.NewTransferQueue[int]() },
		"segmented": func() synchq.TimedQueue[int] { return synchq.New[int](synchq.Segmented()) },
		"segmented+sharded": func() synchq.TimedQueue[int] {
			return synchq.New[int](synchq.Segmented(), synchq.Sharded(4))
		},
	}
}

func TestConformanceDemandContract(t *testing.T) {
	for name, mk := range demandImpls() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Run("handshake", func(t *testing.T) {
				q := mk()
				got := make(chan int)
				go func() { got <- q.Take() }()
				q.Put(1)
				if v := <-got; v != 1 {
					t.Fatalf("Take = %d, want 1", v)
				}
			})
			t.Run("put-waits", func(t *testing.T) {
				q := mk()
				var returned atomic.Bool
				go func() {
					q.Put(2)
					returned.Store(true)
				}()
				time.Sleep(15 * time.Millisecond)
				if returned.Load() {
					t.Fatal("Put returned with no consumer")
				}
				if v := q.Take(); v != 2 {
					t.Fatalf("Take = %d, want 2", v)
				}
			})
			t.Run("conservation", func(t *testing.T) {
				q := mk()
				const workers, per = 3, 200
				var wg sync.WaitGroup
				var sum atomic.Int64
				for w := 0; w < workers; w++ {
					wg.Add(2)
					base := w * per
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							q.Put(base + i)
						}
					}()
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							sum.Add(int64(q.Take()))
						}
					}()
				}
				wg.Wait()
				total := int64(workers * per)
				if want := total * (total - 1) / 2; sum.Load() != want {
					t.Fatalf("sum = %d, want %d", sum.Load(), want)
				}
			})
		})
	}
}

func TestConformanceTimedContract(t *testing.T) {
	for name, mk := range timedImpls() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk()
			if q.Offer(1) {
				t.Fatal("Offer succeeded with no consumer")
			}
			if _, ok := q.Poll(); ok {
				t.Fatal("Poll succeeded with no producer")
			}
			if q.OfferTimeout(1, 5*time.Millisecond) {
				t.Fatal("OfferTimeout succeeded with no consumer")
			}
			if _, ok := q.PollTimeout(5 * time.Millisecond); ok {
				t.Fatal("PollTimeout succeeded with no producer")
			}
			// Patience rewarded on both sides.
			go func() {
				time.Sleep(5 * time.Millisecond)
				q.Put(7)
			}()
			if v, ok := q.PollTimeout(5 * time.Second); !ok || v != 7 {
				t.Fatalf("PollTimeout = (%d,%v), want (7,true)", v, ok)
			}
			done := make(chan int)
			go func() { done <- q.Take() }()
			if !q.OfferTimeout(8, 5*time.Second) {
				t.Fatal("OfferTimeout failed with a consumer en route")
			}
			if v := <-done; v != 8 {
				t.Fatalf("Take = %d, want 8", v)
			}
		})
	}
}

func TestConformanceTimedRace(t *testing.T) {
	// Producer and consumer with equal tiny patience must always agree.
	for name, mk := range timedImpls() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			q := mk()
			for i := 0; i < 100; i++ {
				got := make(chan bool, 1)
				go func() {
					_, ok := q.PollTimeout(500 * time.Microsecond)
					got <- ok
				}()
				sent := q.OfferTimeout(i, 500*time.Microsecond)
				received := <-got
				if sent != received {
					t.Fatalf("iteration %d: sent=%v received=%v", i, sent, received)
				}
			}
			// Whatever happened, nothing may be left behind.
			if v, ok := q.Poll(); ok {
				t.Fatalf("straggler value %d after balanced timed race", v)
			}
		})
	}
}

// batchAPI narrows every batch-capable surface (SynchronousQueue with any
// option set, TransferQueue, EliminatingQueue) to one shape so a single
// contract suite runs over all of them.
type batchAPI struct {
	putAllCtx    func(ctx context.Context, items []int) (int, error)
	takeBatchCtx func(ctx context.Context, max int) ([]int, error)
	drainTo      func(buf []int, max int) []int
	take         func() int
	put          func(v int) // synchronous single put, for committed-producer setup
	close        func()
	// fifo marks cores whose in-batch FIFO holds end to end (fair and
	// unsharded); a sharded queue keeps it only per shard.
	fifo bool
}

func batchImpls() map[string]func() batchAPI {
	mkSQ := func(fifo bool, opts ...synchq.Option) func() batchAPI {
		return func() batchAPI {
			q := synchq.New[int](opts...)
			return batchAPI{
				putAllCtx:    q.PutAllContext,
				takeBatchCtx: q.TakeBatchContext,
				drainTo:      q.DrainTo,
				take:         q.Take,
				put:          q.Put,
				close:        q.Close,
				fifo:         fifo,
			}
		}
	}
	return map[string]func() batchAPI{
		"fair":              mkSQ(true, synchq.Fair(true)),
		"unfair":            mkSQ(false),
		"segmented":         mkSQ(true, synchq.Segmented()),
		"fair+sharded":      mkSQ(false, synchq.Fair(true), synchq.Sharded(4)),
		"unfair+sharded":    mkSQ(false, synchq.Sharded(4)),
		"segmented+sharded": mkSQ(false, synchq.Segmented(), synchq.Sharded(4)),
		"eliminating": func() batchAPI {
			e := synchq.NewEliminatingQueue[int](synchq.Fair(true), synchq.Eliminating(2, 20*time.Microsecond))
			return batchAPI{
				putAllCtx:    e.PutAllContext,
				takeBatchCtx: e.TakeBatchContext,
				drainTo:      e.DrainTo,
				take:         e.Take,
				put:          e.Put,
				close:        e.Close,
				fifo:         true,
			}
		},
		"transfer": func() batchAPI {
			q := synchq.NewTransferQueue[int]()
			return batchAPI{
				putAllCtx:    q.TransferAllContext,
				takeBatchCtx: q.TakeBatchContext,
				drainTo: func(buf []int, max int) []int {
					buf, _ = q.DrainTo(buf, max)
					return buf
				},
				take:  q.Take,
				put:   q.Transfer,
				close: q.Close,
				fifo:  true,
			}
		},
	}
}

// TestConformanceBatchContract runs the shared batch contract over every
// batch-capable core × option combination: empty-slice and max=0 no-ops,
// partial fill on timeout and on cancellation, ErrClosed with the partial
// fill preserved, bulk drain of committed producers, and in-batch FIFO on
// the cores that promise it.
func TestConformanceBatchContract(t *testing.T) {
	for name, mk := range batchImpls() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Run("empty-noop", func(t *testing.T) {
				q := mk()
				// No consumer anywhere: these must return immediately.
				if n, err := q.putAllCtx(context.Background(), nil); n != 0 || err != nil {
					t.Fatalf("PutAll(nil) = (%d, %v), want (0, nil)", n, err)
				}
				if buf, err := q.takeBatchCtx(context.Background(), 0); len(buf) != 0 || err != nil {
					t.Fatalf("TakeBatch(max=0) = (%v, %v), want ([], nil)", buf, err)
				}
				if buf := q.drainTo(nil, 5); len(buf) != 0 {
					t.Fatalf("DrainTo on empty queue = %v, want []", buf)
				}
			})
			t.Run("partial-fill-timeout", func(t *testing.T) {
				q := mk()
				got := make(chan int, 1)
				go func() { got <- q.take() }()
				ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				defer cancel()
				n, err := q.putAllCtx(ctx, []int{1, 2, 3})
				if n != 1 || !errors.Is(err, synchq.ErrTimeout) {
					t.Fatalf("PutAllContext = (%d, %v), want (1, ErrTimeout)", n, err)
				}
				if v := <-got; v != 1 {
					t.Fatalf("consumer got %d, want the batch's first item 1", v)
				}
			})
			t.Run("partial-fill-cancel", func(t *testing.T) {
				q := mk()
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				n, err := q.putAllCtx(ctx, []int{1, 2, 3})
				if n != 0 || !errors.Is(err, context.Canceled) {
					t.Fatalf("PutAllContext on canceled ctx = (%d, %v), want (0, context.Canceled)", n, err)
				}
			})
			t.Run("closed-keeps-partial-fill", func(t *testing.T) {
				q := mk()
				res := make(chan int, 1)
				errs := make(chan error, 1)
				go func() {
					n, err := q.putAllCtx(context.Background(), []int{1, 2, 3})
					res <- n
					errs <- err
				}()
				if v := q.take(); v != 1 {
					t.Fatalf("Take = %d, want 1", v)
				}
				q.close()
				if n, err := <-res, <-errs; n != 1 || !errors.Is(err, synchq.ErrClosed) {
					t.Fatalf("PutAllContext across Close = (%d, %v), want (1, ErrClosed)", n, err)
				}
				// And the take side: a closed empty queue reports ErrClosed
				// with nothing taken.
				if buf, err := q.takeBatchCtx(context.Background(), 2); len(buf) != 0 || !errors.Is(err, synchq.ErrClosed) {
					t.Fatalf("TakeBatchContext on closed = (%v, %v), want ([], ErrClosed)", buf, err)
				}
			})
			t.Run("drainto-committed-producers", func(t *testing.T) {
				q := mk()
				var wg sync.WaitGroup
				for v := 1; v <= 3; v++ {
					wg.Add(1)
					go func(v int) {
						defer wg.Done()
						q.put(v)
					}(v)
				}
				var buf []int
				deadline := time.Now().Add(5 * time.Second)
				for len(buf) < 3 && time.Now().Before(deadline) {
					buf = q.drainTo(buf, 3-len(buf))
				}
				wg.Wait()
				seen := map[int]bool{}
				for _, v := range buf {
					if seen[v] {
						t.Fatalf("value %d drained twice", v)
					}
					seen[v] = true
				}
				if len(seen) != 3 {
					t.Fatalf("drained %v, want 3 distinct committed producers", buf)
				}
			})
			if q := mk(); q.fifo {
				t.Run("fifo-within-batch", func(t *testing.T) {
					q := mk()
					const n = 10
					items := make([]int, n)
					for i := range items {
						items[i] = i
					}
					done := make(chan struct{})
					go func() {
						defer close(done)
						if d, err := q.putAllCtx(context.Background(), items); d != n || err != nil {
							t.Errorf("PutAllContext = (%d, %v), want (%d, nil)", d, err, n)
						}
					}()
					for i := 0; i < n; i++ {
						if v := q.take(); v != i {
							t.Fatalf("take %d = %d, want %d (in-batch FIFO violated)", i, v, i)
						}
					}
					<-done
				})
			}
		})
	}
}

// TestTransferBatchClosedDrain pins the transfer queue's batch forms of
// the closed-drain promise: buffered deposits made before Close keep
// flowing out of TakeBatch and DrainTo, and ErrClosed appears only when
// (and alongside what) the buffer finally yields.
func TestTransferBatchClosedDrain(t *testing.T) {
	q := synchq.NewTransferQueue[int]()
	q.PutAll([]int{1, 2, 3})
	q.Close()
	buf, err := q.TakeBatchContext(context.Background(), 5)
	if !errors.Is(err, synchq.ErrClosed) {
		t.Fatalf("TakeBatchContext err = %v, want ErrClosed once the buffer ran dry", err)
	}
	if len(buf) != 3 || buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("TakeBatchContext kept %v, want the buffered deposits [1 2 3]", buf)
	}
	if buf, err := q.DrainTo(nil, 5); len(buf) != 0 || !errors.Is(err, synchq.ErrClosed) {
		t.Fatalf("DrainTo after full drain = (%v, %v), want ([], ErrClosed)", buf, err)
	}
}

// Guard against accidental interface regressions: the constructor results
// must keep satisfying the advertised interfaces.
var _ = func() bool {
	for n, mk := range demandImpls() {
		if mk() == nil {
			panic(fmt.Sprintf("nil queue from %s", n))
		}
	}
	return true
}()
