package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
)

// The timeouts workload: a closed loop of procs consumers calling
// PollTimeout and procs producers calling OfferTimeout on a plain fair
// queue, with short patience and seeded think times, so a steady share of
// operations expire and exercise cancellation, cleanMe unlinking and
// timer-armed parks.
const (
	timeoutsPatience  = 20 * time.Microsecond
	timeoutsMaxThink  = 100 * time.Microsecond // think times are uniform in [0, this)
	timeoutsWarmOps   = 5_000
	timeoutsSpanShift = 2 // trace one operation in 4
)

// tWorker is one producer's or consumer's tallies. The atomic ones are
// read while the run is live; the rest after the goroutine returns.
type tWorker struct {
	resolved  counter // matched, or expired no earlier than the patience
	matched   counter
	early     counter // expiries reported before the patience elapsed, retried
	attempted int64
	sum       uint64
	corrupt   int64
	over      hist
	spans     *spanBuf
}

type timeouts struct {
	cfg    config
	q      *synchq.SynchronousQueue[item]
	m      *synchq.Metrics
	traced bool
	stop   atomic.Bool
	rec    atomic.Bool
	prods  []*tWorker
	cons   []*tWorker
	done   chan struct{}

	snap0, snap1                 counterSnap
	winMatched, winEarly, winOps int64
}

func setupTimeouts(cfg config, traced bool, window float64) session {
	s := &timeouts{cfg: cfg, traced: traced, done: make(chan struct{})}
	if traced {
		s.m = synchq.NewMetrics()
		s.q = synchq.New[item](synchq.Fair(true), synchq.Instrument(s.m))
	} else {
		s.q = synchq.New[item](synchq.Fair(true))
	}
	// Spans are kept for the window only, sized for up to 400k operations/s.
	spanCap := int(window * 4e5 / float64(cfg.procs) / (1 << timeoutsSpanShift))
	var wg sync.WaitGroup
	for i := 0; i < cfg.procs; i++ {
		p, c := &tWorker{}, &tWorker{}
		if traced {
			p.spans, c.spans = newSpanBuf(spanCap), newSpanBuf(spanCap)
		}
		s.prods = append(s.prods, p)
		s.cons = append(s.cons, c)
		wg.Add(2)
		go s.offer(p, uint32(i), &wg)
		go s.poll(c, uint32(i), &wg)
	}
	go func() { wg.Wait(); close(s.done) }()
	warmUntil := nanotime() + int64(warmLimit)
	for s.sumOf(func(w *tWorker) int64 { return w.resolved.n.Load() }) < timeoutsWarmOps && nanotime() < warmUntil {
		time.Sleep(100 * time.Microsecond)
	}
	return s
}

// think busy-waits for ns, yielding so parked timed waiters whose timers
// fire are scheduled promptly.
func think(ns int64) {
	for end := nanotime() + ns; nanotime() < end; {
		runtime.Gosched()
	}
}

// Each timed operation holds a deadline timeoutsPatience after it
// starts. An expiry reported before the deadline is counted in early and
// the call is made again for the time left, as a caller holding a
// deadline would, so every operation either matches or expires no
// earlier than its deadline.

// settle records one timed operation that returned at t1.
func (s *timeouts) settle(w *tWorker, ok bool, t1, deadline int64) {
	w.attempted++
	w.resolved.n.Add(1)
	if ok {
		w.matched.n.Add(1)
	} else if s.rec.Load() {
		w.over.record(t1 - deadline)
	}
}

func (s *timeouts) offer(w *tWorker, id uint32, wg *sync.WaitGroup) {
	defer wg.Done()
	r := newRNG(s.cfg.seed, 1, uint64(id))
	for seq := uint32(0); !s.stop.Load(); seq++ {
		think(r.intn(int64(timeoutsMaxThink)))
		it := item{prod: id, seq: seq, val: payload(s.cfg.seed, id, seq)}
		t0 := nanotime()
		deadline := t0 + int64(timeoutsPatience)
		ok := s.q.OfferTimeout(it, timeoutsPatience)
		t1 := nanotime()
		for !ok && t1 < deadline {
			w.early.n.Add(1)
			ok = s.q.OfferTimeout(it, time.Duration(deadline-t1))
			t1 = nanotime()
		}
		s.settle(w, ok, t1, deadline)
		if ok {
			w.sum += it.val
		}
		if w.spans != nil && s.rec.Load() && sampled(itemID(id, seq), timeoutsSpanShift) {
			w.spans.add(span{start: t0, end: t1, req: itemID(id, seq), parent: -1, name: spOffer})
		}
	}
}

func (s *timeouts) poll(w *tWorker, id uint32, wg *sync.WaitGroup) {
	defer wg.Done()
	r := newRNG(s.cfg.seed, 2, uint64(id))
	for op := uint64(0); !s.stop.Load(); op++ {
		think(r.intn(int64(timeoutsMaxThink)))
		t0 := nanotime()
		deadline := t0 + int64(timeoutsPatience)
		it, ok := s.q.PollTimeout(timeoutsPatience)
		t1 := nanotime()
		for !ok && t1 < deadline {
			w.early.n.Add(1)
			it, ok = s.q.PollTimeout(time.Duration(deadline - t1))
			t1 = nanotime()
		}
		s.settle(w, ok, t1, deadline)
		if ok {
			w.sum += it.val
			if it.val != payload(s.cfg.seed, it.prod, it.seq) {
				w.corrupt++
			}
		}
		if id := uint64(id)<<40 | op; w.spans != nil && s.rec.Load() && sampled(id, timeoutsSpanShift) {
			w.spans.add(span{start: t0, end: t1, req: id, parent: -1, name: spPoll})
		}
	}
}

func (s *timeouts) sumOf(f func(*tWorker) int64) int64 {
	var n int64
	for _, w := range s.prods {
		n += f(w)
	}
	for _, w := range s.cons {
		n += f(w)
	}
	return n
}

func (s *timeouts) completed() int64 {
	return s.sumOf(func(w *tWorker) int64 { return w.resolved.n.Load() })
}

func (s *timeouts) openWindow(at int64) {
	if s.traced {
		s.snap0 = snapMetrics(s.m)
	}
	s.winOps = -s.completed()
	s.winMatched = -s.sumOf(func(w *tWorker) int64 { return w.matched.n.Load() })
	s.winEarly = -s.sumOf(func(w *tWorker) int64 { return w.early.n.Load() })
	s.rec.Store(true)
}

func (s *timeouts) closeWindow(at int64) {
	s.rec.Store(false)
	s.winOps += s.completed()
	s.winMatched += s.sumOf(func(w *tWorker) int64 { return w.matched.n.Load() })
	s.winEarly += s.sumOf(func(w *tWorker) int64 { return w.early.n.Load() })
	if s.traced {
		s.snap1 = snapMetrics(s.m)
	}
}

// finish stops every worker after its current timed operation and checks
// that the items offered successfully are exactly the items polled.
func (s *timeouts) finish() outcome {
	s.stop.Store(true)
	if !joinWithin(s.done, 10*time.Second) {
		hang(s.cfg, "timeouts: timed operations did not return")
	}
	var o outcome
	o.latency = &hist{}
	var offered, polled, early, corrupt int64
	var osum, psum uint64
	for _, w := range s.prods {
		o.attempted += w.attempted
		offered += w.matched.n.Load()
		osum += w.sum
		early += w.early.n.Load()
		o.latency.merge(&w.over)
	}
	for _, w := range s.cons {
		o.attempted += w.attempted
		polled += w.matched.n.Load()
		psum += w.sum
		early += w.early.n.Load()
		corrupt += w.corrupt
		o.latency.merge(&w.over)
	}
	o.failed = corrupt
	if offered != polled || osum != psum {
		o.violations = append(o.violations, fmt.Sprintf("timeouts: %d offers succeeded but %d polls received (or different items)", offered, polled))
	}
	if corrupt > 0 {
		o.violations = append(o.violations, fmt.Sprintf("timeouts: %d corrupt payloads", corrupt))
	}
	if early > 0 {
		o.notes = append(o.notes, fmt.Sprintf("timeouts: %d times a timed operation (of %d) reported expiry before its %v patience and was retried for the time left", early, o.attempted, timeoutsPatience))
	}
	if s.traced {
		ops := max(s.winOps, 1)
		o.layer = coreLayer(s.snap1.sub(s.snap0), ops)
		o.layer["synchq.match_ratio"] = float64(s.winMatched) / float64(ops)
		o.layer["park.early_returns"] = float64(s.winEarly)
		ss := &spanSet{}
		for i := range s.prods {
			ss.bufs = append(ss.bufs, s.prods[i].spans, s.cons[i].spans)
		}
		o.notes = append(o.notes, ss.report(s.cfg))
		o.absent = absentFor("the timeouts queue has no demand hand-offs, fabric, executor or generator",
			"synchq.put", "synchq.take", "shard.", "pool.", "loadgen.")
	}
	return o
}
