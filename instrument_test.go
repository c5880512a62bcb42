package synchq_test

import (
	"sync"
	"testing"
	"time"

	"synchq"
)

// pairN drives n put/take pairs through q from two goroutines.
func pairN(t *testing.T, q synchq.TimedQueue[int], n int) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Put(i)
		}
	}()
	for i := 0; i < n; i++ {
		q.Take()
	}
	wg.Wait()
}

func TestInstrumentSynchronousQueue(t *testing.T) {
	for _, fair := range []bool{true, false} {
		m := synchq.NewMetrics()
		q := synchq.New[int](synchq.Fair(fair), synchq.Instrument(m))
		if q.Metrics() != m {
			t.Fatal("Metrics() did not return the instrumented set")
		}
		pairN(t, q, 400)
		s := m.Stats()
		if got := s.Counters["fulfillments"]; got != 400 {
			t.Errorf("fair=%v: fulfillments = %d, want 400", fair, got)
		}
		h, ok := s.Latency["handoff"]
		if !ok || h.Count == 0 {
			t.Fatalf("fair=%v: no handoff latency recorded: %+v", fair, s.Latency)
		}
		// Both sides of a pair record their own arrival-to-pairing time, but
		// the latency layer samples 1-in-SampleRate operations, so the count
		// is bounded by the opportunity count rather than equal to it.
		if h.Count > 800 {
			t.Errorf("fair=%v: handoff count = %d, want ≤ 800 (both sides, sampled)", fair, h.Count)
		}
		if h.P50 < 0 || h.Max < h.P50 || h.P999 < h.P50 {
			t.Errorf("fair=%v: implausible percentiles: %+v", fair, h)
		}
	}
}

func TestInstrumentUninstrumentedIsNil(t *testing.T) {
	q := synchq.New[int]()
	if q.Metrics() != nil {
		t.Error("uninstrumented queue has non-nil Metrics()")
	}
	// Every method on a nil *Metrics is safe.
	var m *synchq.Metrics
	m.Reset()
	if s := m.Stats(); len(s.Counters) != 0 || len(s.Latency) != 0 {
		t.Errorf("nil Metrics Stats not empty: %+v", s)
	}
	if ss := m.ShardStats(); ss != nil {
		t.Errorf("nil Metrics ShardStats = %v, want nil", ss)
	}
	m.LatencyRecorder("handoff")(time.Microsecond)
}

func TestInstrumentSharded(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Sharded(4), synchq.Instrument(m))
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	pairN(t, q, 400)

	ss := m.ShardStats()
	if len(ss) != q.Shards() {
		t.Fatalf("ShardStats has %d entries, want %d", len(ss), q.Shards())
	}
	var perShard int64
	for _, s := range ss {
		perShard += s.Counters["fulfillments"]
	}
	if perShard != 400 {
		t.Errorf("per-shard fulfillments sum = %d, want 400", perShard)
	}
	// The merged view must agree with the sum of the parts.
	if got := m.Stats().Counters["fulfillments"]; got != perShard {
		t.Errorf("merged fulfillments = %d, want %d", got, perShard)
	}
	if h := m.Stats().Latency["handoff"]; h.Count == 0 || h.Count > 800 {
		t.Errorf("merged handoff count = %d, want in (0, 800] (sampled)", h.Count)
	}
}

func TestInstrumentTransferQueue(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.NewTransferQueue[int](synchq.Instrument(m))
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			q.Transfer(i)
		}
	}()
	for i := 0; i < 200; i++ {
		q.Take()
	}
	wg.Wait()
	s := m.Stats()
	if got := s.Counters["fulfillments"]; got != 200 {
		t.Errorf("fulfillments = %d, want 200", got)
	}
	if s.Latency["handoff"].Count == 0 {
		t.Error("no handoff latency recorded for transfers")
	}
}

func TestInstrumentExchanger(t *testing.T) {
	m := synchq.NewMetrics()
	x := synchq.NewExchangerSize[int](1, synchq.Instrument(m))
	if x.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			x.Exchange(i)
		}
	}()
	for i := 0; i < 200; i++ {
		x.Exchange(1000 + i)
	}
	wg.Wait()
	if h := m.Stats().Latency["handoff"]; h.Count == 0 {
		t.Error("no handoff latency recorded for exchanges")
	}
}

func TestInstrumentEliminatingQueue(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.NewEliminatingQueue[int](
		synchq.Eliminating(1, 100*time.Millisecond),
		synchq.Instrument(m),
	)
	if q.Metrics() != m {
		t.Fatal("Metrics() did not return the instrumented set")
	}
	if q.Adaptive() {
		t.Error("Eliminating option built an adaptive arena")
	}
	if q.Fair() {
		t.Error("default backing queue should be unfair")
	}
	if q.Shards() != 1 {
		t.Errorf("Shards = %d, want 1", q.Shards())
	}
	pairN(t, q, 300)
	s := m.Stats()
	elim := s.Latency["elim"].Count
	fallback := s.Latency["fallback"].Count
	if elim == 0 && fallback == 0 {
		t.Errorf("no elim or fallback latency recorded: %+v", s.Latency)
	}
	// Every pair went one way or the other; elim counts both parties of an
	// arena hit, fallback counts each party that completed on the queue.
	// Under 1-in-SampleRate sampling a small hit count can legitimately
	// leave the histogram empty, so only a large hit count demands samples.
	if hits := s.Counters["elim-hits"]; hits >= 100 && elim == 0 {
		t.Errorf("elim-hits = %d but elim histogram empty", hits)
	}
}

func TestEliminatingDefaultIsAdaptive(t *testing.T) {
	q := synchq.NewEliminatingQueue[int]()
	if !q.Adaptive() {
		t.Error("NewEliminatingQueue without options should be adaptive")
	}
	if q.Metrics() != nil {
		t.Error("uninstrumented eliminating queue has non-nil Metrics()")
	}
	pairN(t, q, 20)
}

func TestEliminatingQueueOptions(t *testing.T) {
	// The front-end selectors and the backing-queue options compose in
	// one options slice.
	q1 := synchq.NewEliminatingQueue[int](synchq.Fair(false), synchq.Eliminating(2, time.Microsecond))
	if q1.Adaptive() {
		t.Error("Eliminating built an adaptive arena")
	}
	pairN(t, q1, 20)

	q2 := synchq.NewEliminatingQueue[int](synchq.Fair(true), synchq.EliminatingAdaptive())
	if !q2.Adaptive() {
		t.Error("EliminatingAdaptive built a static arena")
	}
	if !q2.Fair() {
		t.Error("Fair() should reflect the backing queue")
	}
	pairN(t, q2, 20)

	// Instrument covers the arena and the backing queue alike.
	m := synchq.NewMetrics()
	q3 := synchq.NewEliminatingQueue[int](synchq.EliminatingAdaptive(), synchq.Instrument(m))
	if q3.Metrics() != m {
		t.Error("eliminating queue did not report its Instrument metrics")
	}
	pairN(t, q3, 20)
	if s := m.Stats(); s.Counters["fulfillments"] == 0 && s.Counters["elim-hits"] == 0 {
		t.Error("no events recorded through the eliminating queue")
	}
}

func TestStatsMerge(t *testing.T) {
	m1, m2 := synchq.NewMetrics(), synchq.NewMetrics()
	q1 := synchq.New[int](synchq.Instrument(m1))
	q2 := synchq.New[int](synchq.Instrument(m2))
	pairN(t, q1, 10)
	pairN(t, q2, 15)

	s1, s2 := m1.Stats(), m2.Stats()
	merged := s1.Merge(s2)
	if got := merged.Counters["fulfillments"]; got != 25 {
		t.Errorf("merged fulfillments = %d, want 25", got)
	}
	// Sampled counts are not deterministic, but merging must preserve them.
	if got, want := merged.Latency["handoff"].Count, s1.Latency["handoff"].Count+s2.Latency["handoff"].Count; got != want {
		t.Errorf("merged handoff count = %d, want %d", got, want)
	}
	// Percentiles are recomputed from merged buckets, not copied.
	if merged.Latency["handoff"].Max < s1.Latency["handoff"].Max {
		t.Error("merged Max lost samples")
	}
}

func TestMetricsReset(t *testing.T) {
	m := synchq.NewMetrics()
	q := synchq.New[int](synchq.Sharded(2), synchq.Instrument(m))
	pairN(t, q, 10)
	if m.Stats().Counters["fulfillments"] == 0 {
		t.Fatal("no events before Reset")
	}
	m.Reset()
	s := m.Stats()
	if got := s.Counters["fulfillments"]; got != 0 {
		t.Errorf("fulfillments after Reset = %d, want 0", got)
	}
	if len(s.Latency) != 0 {
		t.Errorf("latency after Reset = %+v, want empty", s.Latency)
	}
}

func TestLatencyRecorder(t *testing.T) {
	m := synchq.NewMetrics()
	rec := m.LatencyRecorder("handoff")
	rec(time.Microsecond)
	rec(time.Millisecond)
	if got := m.Stats().Latency["handoff"].Count; got != 2 {
		t.Errorf("recorded count = %d, want 2", got)
	}
	// Unknown names are a silent no-op, not a panic.
	m.LatencyRecorder("no-such-histogram")(time.Second)
}
