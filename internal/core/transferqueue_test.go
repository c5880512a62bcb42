package core

import (
	"sync"
	"testing"
	"time"
)

func TestTransferQueuePutIsAsync(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			q.Put(i)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("asynchronous Put blocked")
	}
	if !q.HasBufferedData() {
		t.Fatal("buffered data not observed")
	}
	for i := 0; i < 10; i++ {
		if v := q.Take(); v != i {
			t.Fatalf("Take = %d, want %d (FIFO violated)", v, i)
		}
	}
}

func TestTransferQueueTransferIsSync(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	delivered := make(chan struct{})
	go func() {
		q.Transfer(42)
		close(delivered)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-delivered:
		t.Fatal("Transfer returned before a consumer took the element")
	default:
	}
	if v := q.Take(); v != 42 {
		t.Fatalf("Take = %d, want 42", v)
	}
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("Transfer never returned after Take")
	}
}

func TestTransferQueueTryTransfer(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	if q.TryTransfer(1) {
		t.Fatal("TryTransfer succeeded with no waiting consumer")
	}
	done := make(chan int)
	go func() { done <- q.Take() }()
	// Wait for the consumer to be registered.
	deadline := time.Now().Add(5 * time.Second)
	for !q.HasWaitingConsumer() {
		if time.Now().After(deadline) {
			t.Fatal("consumer never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if !q.TryTransfer(2) {
		t.Fatal("TryTransfer failed with a waiting consumer")
	}
	if got := <-done; got != 2 {
		t.Fatalf("Take = %d, want 2", got)
	}
}

func TestTransferQueueTransferTimeout(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	if q.TransferTimeout(1, 20*time.Millisecond) {
		t.Fatal("TransferTimeout succeeded with no consumer")
	}
	// The timed-out element must not be visible to a later Poll.
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll returned an element from a timed-out Transfer")
	}
}

func TestTransferQueueMixedSyncAsyncFIFO(t *testing.T) {
	// Async elements and waiting sync producers share one FIFO order.
	q := NewTransferQueue[int](WaitConfig{})
	q.Put(1)
	q.Put(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.Transfer(3)
	}()
	// Wait until the sync producer is queued behind the async data.
	deadline := time.Now().Add(5 * time.Second)
	for q.q.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sync producer never queued (Len=%d)", q.q.Len())
		}
		time.Sleep(100 * time.Microsecond)
	}
	for want := 1; want <= 3; want++ {
		if v := q.Take(); v != want {
			t.Fatalf("Take = %d, want %d", v, want)
		}
	}
	wg.Wait()
}

func TestTransferQueuePollTimeout(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	if _, ok := q.PollTimeout(10 * time.Millisecond); ok {
		t.Fatal("PollTimeout succeeded on empty queue")
	}
	q.Put(7)
	if v, ok := q.PollTimeout(time.Second); !ok || v != 7 {
		t.Fatalf("PollTimeout = (%d,%v), want (7,true)", v, ok)
	}
}

func TestTransferQueueTakeDeadlineCancel(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	cancel := make(chan struct{})
	done := make(chan Status)
	go func() {
		_, st := q.TakeDeadline(time.Time{}, cancel)
		done <- st
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	if st := <-done; st != Canceled {
		t.Fatalf("TakeDeadline status = %v, want Canceled", st)
	}
}

func TestTransferQueueConcurrentMixedLoad(t *testing.T) {
	q := NewTransferQueue[int64](WaitConfig{})
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := int64(0); i < perProducer; i++ {
				if i%2 == 0 {
					q.Put(id<<32 | i) // async
				} else {
					q.Transfer(id<<32 | i) // sync
				}
			}
		}(int64(p))
	}
	seen := make(map[int64]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for i := 0; i < producers*perProducer/4; i++ {
				v := q.Take()
				mu.Lock()
				if seen[v] {
					t.Errorf("value %d delivered twice", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("delivered %d values, want %d", len(seen), producers*perProducer)
	}
}

func TestTransferQueueDrain(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	if got := q.Drain(); len(got) != 0 {
		t.Fatalf("Drain of empty queue = %v", got)
	}
	q.Put(1)
	q.Put(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q.Transfer(3) // waiting synchronous producer joins the FIFO
	}()
	deadline := time.Now().Add(5 * time.Second)
	for q.q.Len() != 3 {
		if time.Now().After(deadline) {
			t.Fatal("sync producer never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	got := q.Drain()
	wg.Wait()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Drain = %v, want [1 2 3]", got)
	}
	if !q.q.IsEmpty() {
		t.Fatal("queue not empty after Drain")
	}
}

// TestTransferQueueFIFOWaitingConsumers: consumers that wait on an empty
// queue are served by later asynchronous deposits in arrival order.
func TestTransferQueueFIFOWaitingConsumers(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	const n = 6
	results := make([]chan int, n)
	for i := 0; i < n; i++ {
		results[i] = make(chan int, 1)
		ch := results[i]
		go func() { ch <- q.Take() }()
		waitLen[int](t, q.q, i+1)
	}
	for i := 0; i < n; i++ {
		if st := q.Put(100 + i); st != OK {
			t.Fatalf("Put = %v, want OK", st)
		}
	}
	for i := 0; i < n; i++ {
		if got := <-results[i]; got != 100+i {
			t.Fatalf("consumer %d got %d, want %d (FIFO violated)", i, got, 100+i)
		}
	}
}

// TestTransferQueuePollBuffered: Poll never waits — it fails on an empty
// queue and returns buffered deposits oldest first.
func TestTransferQueuePollBuffered(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	if _, ok := q.Poll(); ok {
		t.Fatal("Poll succeeded on empty queue")
	}
	q.Put(1)
	q.Put(2)
	for want := 1; want <= 2; want++ {
		if v, ok := q.Poll(); !ok || v != want {
			t.Fatalf("Poll = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

// TestTransferQueueTimedOutConsumerSkipped: a consumer that timed out
// waits out its patience and leaves no reservation behind that could
// swallow a later deposit — the deposit reaches the live consumer queued
// after it.
func TestTransferQueueTimedOutConsumerSkipped(t *testing.T) {
	q := NewTransferQueue[int](WaitConfig{})
	const patience = 20 * time.Millisecond
	t0 := time.Now()
	if _, ok := q.PollTimeout(patience); ok {
		t.Fatal("PollTimeout succeeded on empty queue")
	}
	if el := time.Since(t0); el < patience {
		t.Fatalf("PollTimeout gave up after %v, before its %v patience", el, patience)
	}
	got := make(chan int, 1)
	go func() {
		if v, ok := q.PollTimeout(5 * time.Second); ok {
			got <- v
		}
	}()
	waitLen[int](t, q.q, 1)
	q.Put(9)
	select {
	case v := <-got:
		if v != 9 {
			t.Fatalf("live consumer got %d, want 9", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("live consumer never received the deposit")
	}
}

// TestTransferQueueZeroSizedPayloads: for a zero-sized element type every
// value shares one address, so a timeout must not be mistaken for a
// delivery and a deposit must still be seen.
func TestTransferQueueZeroSizedPayloads(t *testing.T) {
	t.Run("poll", func(t *testing.T) {
		q := NewTransferQueue[struct{}](WaitConfig{})
		if _, ok := q.PollTimeout(2 * time.Millisecond); ok {
			t.Fatal("PollTimeout succeeded on empty queue")
		}
		q.Put(struct{}{})
		if _, ok := q.Poll(); !ok {
			t.Fatal("Poll failed with a deposit present")
		}
	})
	t.Run("take", func(t *testing.T) {
		q := NewTransferQueue[struct{}](WaitConfig{})
		q.Put(struct{}{})
		if _, st := q.TakeDeadline(time.Now().Add(2*time.Millisecond), nil); st != OK {
			t.Fatalf("TakeDeadline with a deposit present = %v, want OK", st)
		}
		if _, st := q.TakeDeadline(time.Now().Add(2*time.Millisecond), nil); st != Timeout {
			t.Fatalf("TakeDeadline on drained queue = %v, want Timeout", st)
		}
	})
}
