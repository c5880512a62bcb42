package synchq

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Public-surface tests for the Sharded option and the adaptive eliminating
// queue: the compositions the multi-core PR added on top of the core
// structures, exercised through the same API the README documents.

func TestShardedOptionRoundTrip(t *testing.T) {
	q := New[int](Fair(true), Sharded(4))
	if got := q.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if !q.Fair() {
		t.Error("Fair() = false for a fair sharded queue")
	}

	const n = 2000
	const workers = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	sum := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := 0; i < n/workers; i++ {
				local += q.Take()
			}
			mu.Lock()
			sum += local
			mu.Unlock()
		}()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < n/workers; i++ {
				q.Put(base + i)
			}
		}(w * (n / workers))
	}
	wg.Wait()
	if want := n * (n - 1) / 2; sum != want {
		t.Errorf("sum of transfers = %d, want %d", sum, want)
	}
	if !q.IsEmpty() {
		t.Error("sharded queue not empty after balanced run")
	}
}

func TestShardedOptionRounding(t *testing.T) {
	if got := New[int](Sharded(3)).Shards(); got != 4 {
		t.Errorf("Sharded(3) built %d shards, want 4", got)
	}
	// Sharded(0) now means adaptive: the fabric starts collapsed at
	// width 1 with a GOMAXPROCS-sized ceiling.
	q0 := New[int](Sharded(0))
	if got := q0.Shards(); got != 1 {
		t.Errorf("Sharded(0) starts at effective width %d, want 1 (adaptive)", got)
	}
	if got := q0.MaxShards(); got < 1 {
		t.Errorf("Sharded(0) ceiling = %d, want >= 1 (GOMAXPROCS-sized)", got)
	}
	if st, ok := q0.FabricStats(); !ok || !st.Adaptive {
		t.Errorf("Sharded(0) FabricStats = %+v, %v; want adaptive fabric", st, ok)
	}
	if got := New[int]().Shards(); got != 1 {
		t.Errorf("unsharded queue reports Shards() = %d, want 1", got)
	}
}

func TestShardedContextAndClose(t *testing.T) {
	q := New[int](Fair(true), Sharded(2))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := q.TakeContext(ctx); err != ErrTimeout {
		t.Errorf("TakeContext on empty sharded queue = %v, want ErrTimeout", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := q.TakeContext(context.Background())
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("TakeContext after Close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("TakeContext stranded after Close")
	}
	if !q.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := q.PutContext(context.Background(), 1); err != ErrClosed {
		t.Errorf("PutContext on closed sharded queue = %v, want ErrClosed", err)
	}
}

func TestShardedUnfair(t *testing.T) {
	q := New[int](Fair(false), Sharded(2))
	done := make(chan int)
	go func() { done <- q.Take() }()
	deadline := time.Now().Add(2 * time.Second)
	for !q.Offer(5) {
		if time.Now().After(deadline) {
			t.Fatal("Offer never found the waiting consumer")
		}
		time.Sleep(time.Millisecond)
	}
	if got := <-done; got != 5 {
		t.Errorf("Take = %d, want 5", got)
	}
}

func TestEliminatingAdaptiveRoundTrip(t *testing.T) {
	e := NewEliminatingAdaptive(NewFair[int]())
	if !e.Adaptive() {
		t.Fatal("NewEliminatingAdaptive reports Adaptive() = false")
	}
	const n = 1000
	done := make(chan int)
	go func() {
		sum := 0
		for i := 0; i < n; i++ {
			sum += e.Take()
		}
		done <- sum
	}()
	for i := 0; i < n; i++ {
		e.Put(i)
	}
	if got := <-done; got != n*(n-1)/2 {
		t.Errorf("sum = %d, want %d", got, n*(n-1)/2)
	}
	if !e.IsEmpty() {
		t.Error("eliminating queue not empty after balanced run")
	}
}

func TestEliminatingAdaptiveParitySurface(t *testing.T) {
	e := NewEliminatingAdaptive(NewFair[int]())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := e.TakeContext(ctx); err != ErrTimeout {
		t.Errorf("TakeContext = %v, want ErrTimeout", err)
	}
	if ok := e.OfferWait(1, time.Now().Add(5*time.Millisecond), nil); ok {
		t.Error("OfferWait succeeded with no consumer")
	}
	if _, ok := e.PollWait(time.Now().Add(5*time.Millisecond), nil); ok {
		t.Error("PollWait succeeded with no producer")
	}
	if e.HasWaitingConsumer() || e.HasWaitingProducer() || !e.IsEmpty() {
		t.Error("empty eliminating queue reports waiters")
	}

	go func() {
		time.Sleep(2 * time.Millisecond)
		e.Put(9)
	}()
	if v, err := e.TakeContext(context.Background()); err != nil || v != 9 {
		t.Errorf("TakeContext = (%d,%v), want (9,nil)", v, err)
	}

	e.Close()
	if !e.Closed() {
		t.Error("Closed() = false after Close")
	}
	if err := e.PutContext(context.Background(), 1); err != ErrClosed {
		t.Errorf("PutContext on closed eliminating queue = %v, want ErrClosed", err)
	}
	if _, err := e.TakeContext(context.Background()); err != ErrClosed {
		t.Errorf("TakeContext on closed eliminating queue = %v, want ErrClosed", err)
	}
}

func TestEliminatingAdaptiveSharded(t *testing.T) {
	// The two features compose: an adaptive arena in front of a sharded
	// fair queue — the configuration the scaling benchmark headlines.
	e := NewEliminatingAdaptive(New[int](Fair(true), Sharded(2)))
	const n = 500
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			e.Take()
		}
		close(done)
	}()
	for i := 0; i < n; i++ {
		e.Put(i)
	}
	<-done
	if !e.IsEmpty() {
		t.Error("composed queue not empty after balanced run")
	}
}

// TestShardedFairNeverStrands is the regression test for a cross-shard
// strand. An aborted commit reservation leaves a dead node at the front of
// its shard's queue; HasWaitingConsumer/HasWaitingProducer used to report
// such a shard empty even with live waiters behind the dead node, so a
// sweep cleared their presence bit and a counterpart committing on the
// other shard missed them in its Dekker reload — both sides then parked
// for good. Two producers and two consumers move items through a
// two-shard fair queue over and over; a run that makes no progress for two
// seconds is a strand.
func TestShardedFairNeverStrands(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	runs, items := 40, 20000
	if testing.Short() {
		runs = 10
	}
	for r := 0; r < runs; r++ {
		strandRun(t, r, items)
	}
}

// strandRun moves items from each of two producers to two consumers
// through New(Fair(true), Sharded(2)), fails the test if progress stops,
// and checks the consumers received every value exactly once (by count and
// sum).
func strandRun(t *testing.T, run, items int) {
	t.Helper()
	q := New[int](Fair(true), Sharded(2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var progress, sum atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				if q.PutContext(ctx, i) != nil {
					return
				}
				progress.Add(1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				v, err := q.TakeContext(ctx)
				if err != nil {
					return
				}
				sum.Add(int64(v))
				progress.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	want := int64(4 * items)
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	last := int64(-1)
	for {
		select {
		case <-done:
			if n := progress.Load(); n != want || sum.Load() != int64(items)*int64(items-1) {
				t.Fatalf("run %d: lost or duplicated items: %d of %d operations, sum %d", run, n, want, sum.Load())
			}
			return
		case <-tick.C:
			n := progress.Load()
			if n == last {
				cancel()
				<-done
				t.Fatalf("run %d stranded after %d of %d operations", run, n, want)
			}
			last = n
		}
	}
}

// TestShardedHandoffAllocBudget pins what the fabric adds to a hand-off's
// memory: nothing. A sharded pair allocates only what its shard's core
// allocates on its own, which is at most one object per operation — the
// waiter's node on the fair queue, the waiter's and the fulfiller's nodes
// on the unfair stack, a sixteenth of a segment on the segmented core
// (which AllocsPerRun's whole-number count reads as 0). The fabric's
// commit reservations use recycled tickets, so it adds no ticket per
// waiter.
func TestShardedHandoffAllocBudget(t *testing.T) {
	cores := []struct {
		name   string
		opt    Option
		budget float64 // allocations per paired hand-off
	}{
		{"fair", Fair(true), 1},
		{"unfair", Fair(false), 2},
		{"segmented", Segmented(), 0},
	}
	fabrics := []struct {
		name string
		opt  Option
	}{
		{"auto", AutoShard()},
		{"sharded2", Sharded(2)},
	}
	for _, c := range cores {
		for _, f := range fabrics {
			t.Run(c.name+"/"+f.name, func(t *testing.T) {
				budget := c.budget
				if raceEnabled {
					budget++ // sync.Pool drops Puts under -race
				}
				q := New[int64](c.opt, f.opt)
				if got := contextPairAllocs(q); got > budget {
					t.Errorf("allocs per PutContext/TakeContext pair = %v, want at most %v", got, budget)
				}
			})
		}
	}
}

// contextPairAllocs reports the steady-state allocations per paired
// PutContext/TakeContext hand-off, both sides counted (AllocsPerRun reads
// the global allocation counter). -1 is the partner's stop value.
func contextPairAllocs(q *SynchronousQueue[int64]) float64 {
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if v, err := q.TakeContext(ctx); err != nil || v == -1 {
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		q.PutContext(ctx, int64(i))
	}
	got := testing.AllocsPerRun(200, func() { q.PutContext(ctx, 7) })
	q.PutContext(ctx, -1)
	<-done
	return got
}
