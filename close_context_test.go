package synchq_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"synchq"
)

// These tests pin the public error contract: deadline expiry is ErrTimeout,
// external cancellation is the context's cause (context.Canceled for a
// plain cancel, a custom cause for CancelCauseFunc), and shutdown is
// ErrClosed — three distinct, errors.Is-distinguishable outcomes.

func newBoth(t *testing.T) map[string]*synchq.SynchronousQueue[int] {
	t.Helper()
	return map[string]*synchq.SynchronousQueue[int]{
		"fair":   synchq.New[int](synchq.Fair(true)),
		"unfair": synchq.New[int](synchq.Fair(false)),
	}
}

func TestContextDeadlineIsErrTimeout(t *testing.T) {
	for name, q := range newBoth(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel()
			if err := q.PutContext(ctx, 1); !errors.Is(err, synchq.ErrTimeout) {
				t.Errorf("PutContext after deadline: err = %v, want ErrTimeout", err)
			}
			ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Millisecond)
			defer cancel2()
			if _, err := q.TakeContext(ctx2); !errors.Is(err, synchq.ErrTimeout) {
				t.Errorf("TakeContext after deadline: err = %v, want ErrTimeout", err)
			}
		})
	}
}

func TestContextCancelIsCanceledNotTimeout(t *testing.T) {
	for name, q := range newBoth(t) {
		t.Run(name, func(t *testing.T) {
			// A deadline far in the future plus an explicit cancel: the
			// error must say "canceled", never "timed out".
			ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
			errc := make(chan error, 1)
			go func() { errc <- q.PutContext(ctx, 1) }()
			waitBlocked(t, q.HasWaitingProducer)
			cancel()
			err := <-errc
			if !errors.Is(err, context.Canceled) {
				t.Errorf("canceled PutContext: err = %v, want context.Canceled", err)
			}
			if errors.Is(err, synchq.ErrTimeout) {
				t.Errorf("canceled PutContext misreported as ErrTimeout")
			}

			ctx2, cancel2 := context.WithCancel(context.Background())
			errc2 := make(chan error, 1)
			go func() {
				_, err := q.TakeContext(ctx2)
				errc2 <- err
			}()
			waitBlocked(t, q.HasWaitingConsumer)
			cancel2()
			if err := <-errc2; !errors.Is(err, context.Canceled) {
				t.Errorf("canceled TakeContext: err = %v, want context.Canceled", err)
			}
		})
	}
}

func TestContextCancelCausePropagates(t *testing.T) {
	cause := errors.New("load shedding")
	for name, q := range newBoth(t) {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			errc := make(chan error, 1)
			go func() { errc <- q.PutContext(ctx, 1) }()
			waitBlocked(t, q.HasWaitingProducer)
			cancel(cause)
			if err := <-errc; !errors.Is(err, cause) {
				t.Errorf("PutContext with cancel cause: err = %v, want %v", err, cause)
			}
		})
	}
}

func TestCloseUnblocksContextOps(t *testing.T) {
	for name, q := range newBoth(t) {
		t.Run(name, func(t *testing.T) {
			errc := make(chan error, 2)
			go func() { errc <- q.PutContext(context.Background(), 1) }()
			go func() {
				_, err := q.TakeContext(context.Background())
				errc <- err
			}()
			// Both can pair with each other; retry until both are parked
			// waiters, or accept that one pair completed and re-spawn.
			// Simplest robust form: wait until Close is the only way out.
			time.Sleep(10 * time.Millisecond)
			q.Close()
			for i := 0; i < 2; i++ {
				err := <-errc
				// One of the two may have paired with the other before the
				// close; the rest must see ErrClosed.
				if err != nil && !errors.Is(err, synchq.ErrClosed) {
					t.Errorf("after Close: err = %v, want nil (paired) or ErrClosed", err)
				}
			}
			if !q.Closed() {
				t.Error("Closed() = false after Close")
			}
			if err := q.PutContext(context.Background(), 2); !errors.Is(err, synchq.ErrClosed) {
				t.Errorf("PutContext on closed queue: err = %v, want ErrClosed", err)
			}
			if _, err := q.TakeContext(context.Background()); !errors.Is(err, synchq.ErrClosed) {
				t.Errorf("TakeContext on closed queue: err = %v, want ErrClosed", err)
			}
			if q.Offer(3) {
				t.Error("Offer succeeded on closed queue")
			}
			if _, ok := q.Poll(); ok {
				t.Error("Poll succeeded on closed queue")
			}
		})
	}
}

func TestCloseDemandOpsPanic(t *testing.T) {
	q := synchq.New[int](synchq.Fair(false))
	q.Close()
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Put", func() { q.Put(1) }},
		{"Take", func() { q.Take() }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on closed queue did not panic", tc.name)
				}
			}()
			tc.f()
		}()
	}
}

func TestTransferQueueCloseAndDrainPublic(t *testing.T) {
	tq := synchq.NewTransferQueue[int]()
	for i := 0; i < 5; i++ {
		tq.Put(i)
	}
	taken := tq.Take()
	tq.Close()

	if err := tq.PutErr(99); !errors.Is(err, synchq.ErrClosed) {
		t.Errorf("PutErr on closed queue: err = %v, want ErrClosed", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Put on closed transfer queue did not panic")
			}
		}()
		tq.Put(100)
	}()

	// An accepted deposit is a promise the close keeps: like Take and
	// Poll, TakeContext still returns buffered elements after Close.
	viaCtx, err := tq.TakeContext(context.Background())
	if err != nil {
		t.Fatalf("TakeContext on closed queue with buffered deposits: err = %v, want a value", err)
	}

	drained := tq.Drain()
	if len(drained) != 3 {
		t.Fatalf("Drain returned %d elements (%v), want the 3 undelivered deposits", len(drained), drained)
	}
	seen := map[int]bool{taken: true, viaCtx: true}
	for _, v := range drained {
		if seen[v] {
			t.Errorf("value %d surfaced twice", v)
		}
		seen[v] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Errorf("deposit %d lost by close", i)
		}
	}

	if err := tq.TransferContext(context.Background(), 7); !errors.Is(err, synchq.ErrClosed) {
		t.Errorf("TransferContext on closed queue: err = %v, want ErrClosed", err)
	}
	if _, err := tq.TakeContext(context.Background()); !errors.Is(err, synchq.ErrClosed) {
		t.Errorf("TakeContext on closed drained queue: err = %v, want ErrClosed", err)
	}
}

// TestCloseConcurrentWithTransfers closes the public queue mid-storm: no
// goroutine may hang, and completed hand-offs must balance.
func TestCloseConcurrentWithTransfers(t *testing.T) {
	q := synchq.New[int](synchq.Fair(true))
	var put, taken int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 0; ; v++ {
				if err := q.PutContext(context.Background(), v); err != nil {
					return
				}
				mu.Lock()
				put++
				mu.Unlock()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, err := q.TakeContext(context.Background()); err != nil {
					return
				}
				mu.Lock()
				taken++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	q.Close()
	wg.Wait()
	if put != taken {
		t.Errorf("close tore a hand-off: %d puts succeeded but %d takes", put, taken)
	}
	if put == 0 {
		t.Error("no transfers completed before close")
	}
}

// waitBlocked polls cond until true or a generous deadline.
func waitBlocked(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("goroutine did not block in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
