package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
)

// The pipeline workload: a closed loop of procs producers and procs
// consumers making demand hand-offs (PutContext/TakeContext under one
// run-scoped context) through the production composition — a fair queue
// on the self-scaling shard fabric, instrumented.
const (
	pipelineWarmOps   = 50_000 // hand-offs before the window opens
	pipelineSpanShift = 4      // trace one item in 16
	// A producer and a consumer that have both made no progress for
	// pipelineStall are a stranded pair: in this closed loop a waiting
	// consumer must otherwise meet a waiting producer within microseconds.
	pipelineStall = 200 * time.Millisecond
	pipelineTick  = 20 * time.Millisecond
	// pipelineDrain bounds the drain: a producer whose last item is not
	// taken by then, with strands released all along, has failed.
	pipelineDrain = 5 * time.Second
)

// item is a pipeline payload: who sent it, its sequence number, when the
// PutContext call started, and a value derived from the seed.
type item struct {
	prod uint32
	seq  uint32
	sent int64
	val  uint64
}

func payload(seed uint64, prod, seq uint32) uint64 {
	return mix(seed ^ uint64(prod)<<32 ^ uint64(seq))
}

func itemID(prod, seq uint32) uint64 { return uint64(prod)<<32 | uint64(seq) }

type pProducer struct {
	n         counter // successful puts
	attempted int64
	failed    int64 // items never handed off: still pending when the run ended
	sum       uint64
	spans     *spanBuf
	done      atomic.Bool // returned; no longer a candidate for a strand
	_         [64]byte
}

type pConsumer struct {
	n        counter
	consumed int64
	sum      uint64
	corrupt  int64
	lat      hist
	spans    *spanBuf
	_        [64]byte
}

// epoch is the context the hand-offs currently run under: a child of the
// run-scoped context, replaced only to release a stranded pair.
type epoch struct {
	ctx    context.Context
	cancel context.CancelFunc
}

type pipeline struct {
	cfg      config
	q        *synchq.SynchronousQueue[item]
	m        *synchq.Metrics
	ctx      context.Context // run-scoped
	cancel   context.CancelFunc
	ep       atomic.Pointer[epoch]
	stranded atomic.Int64  // pairs released by the stall monitor
	mdone    chan struct{} // closed when the stall monitor has returned
	stop     atomic.Bool
	rec      atomic.Bool
	prods    []*pProducer
	cons     []*pConsumer
	pdone    chan struct{} // closed when every producer has returned
	cdone    chan struct{} // closed when every consumer has returned

	traced       bool
	from, to     int64
	snap0, snap1 counterSnap
	fab0, fab1   synchq.FabricStats
	winOps       int64
}

func setupPipeline(cfg config, traced bool, window float64) session {
	m := synchq.NewMetrics()
	s := &pipeline{
		cfg:    cfg,
		q:      synchq.New[item](synchq.Fair(true), synchq.AutoShard(), synchq.Instrument(m)),
		m:      m,
		pdone:  make(chan struct{}),
		cdone:  make(chan struct{}),
		mdone:  make(chan struct{}),
		traced: traced,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.newEpoch()
	// Spans are kept for the window only, sized for up to 2M hand-offs/s.
	spanCap := int(window * 2e6 / float64(cfg.procs) / (1 << pipelineSpanShift))
	var pwg, cwg sync.WaitGroup
	for i := 0; i < cfg.procs; i++ {
		p, c := &pProducer{}, &pConsumer{}
		if traced {
			p.spans, c.spans = newSpanBuf(spanCap), newSpanBuf(spanCap)
		}
		s.prods = append(s.prods, p)
		s.cons = append(s.cons, c)
	}
	for i := range s.prods {
		pwg.Add(1)
		cwg.Add(1)
		go s.produce(s.prods[i], uint32(i), &pwg)
		go s.consume(s.cons[i], &cwg)
	}
	go func() { pwg.Wait(); close(s.pdone) }()
	go func() { cwg.Wait(); close(s.cdone) }()
	go s.watch()
	warmUntil := nanotime() + int64(warmLimit)
	for s.completed() < pipelineWarmOps && nanotime() < warmUntil {
		time.Sleep(100 * time.Microsecond)
	}
	return s
}

// produce puts items until the run stops. An item released from a strand
// is put again, under the new epoch, until it is handed off; its latency
// counts from the first attempt, so the strand shows in it.
func (s *pipeline) produce(p *pProducer, id uint32, wg *sync.WaitGroup) {
	defer wg.Done()
	defer p.done.Store(true)
	for seq := uint32(0); !s.stop.Load(); seq++ {
		it := item{prod: id, seq: seq, val: payload(s.cfg.seed, id, seq)}
		p.attempted++
		it.sent = nanotime()
		for s.q.PutContext(s.ep.Load().ctx, it) != nil {
			if s.ctx.Err() != nil {
				p.failed++ // the run ended before the item was handed off
				return
			}
		}
		p.n.n.Add(1)
		p.sum += it.val
		if p.spans != nil && s.rec.Load() && sampled(itemID(id, seq), pipelineSpanShift) {
			p.spans.add(span{start: it.sent, end: nanotime(), req: itemID(id, seq), parent: -1, name: spPut})
		}
	}
}

func (s *pipeline) consume(c *pConsumer, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		var t0 int64
		if c.spans != nil {
			t0 = nanotime()
		}
		it, err := s.q.TakeContext(s.ep.Load().ctx)
		now := nanotime()
		if err != nil {
			if s.ctx.Err() != nil {
				return
			}
			continue
		}
		if it.val != payload(s.cfg.seed, it.prod, it.seq) {
			c.corrupt++
		}
		c.consumed++
		c.sum += it.val
		c.n.n.Add(1)
		if !s.rec.Load() {
			continue
		}
		c.lat.record(now - it.sent)
		if c.spans != nil && sampled(itemID(it.prod, it.seq), pipelineSpanShift) {
			c.spans.add(span{start: t0, end: now, req: itemID(it.prod, it.seq), parent: -1, name: spTake})
		}
	}
}

func (s *pipeline) newEpoch() {
	ctx, cancel := context.WithCancel(s.ctx)
	s.ep.Store(&epoch{ctx, cancel})
}

// watch is the stall monitor; it runs until every producer has returned.
// When some producer and some consumer have both made no progress for
// pipelineStall, they are stranded on different shards: the pairs are
// counted (shard.stranded_ops) and released by replacing the epoch
// context, and both sides try again. One strand costs the window a
// fraction of a second instead of the rest of the run, and no item is
// lost to it.
func (s *pipeline) watch() {
	defer close(s.mdone)
	n := len(s.prods)
	last := make([]int64, 2*n)
	since := make([]int64, 2*n)
	for !joinWithin(s.pdone, pipelineTick) {
		now := nanotime()
		var stuckP, stuckC int64
		for i := range last {
			var c int64
			if i < n {
				c = s.prods[i].n.n.Load()
			} else {
				c = s.cons[i-n].n.n.Load()
			}
			if c != last[i] || since[i] == 0 {
				last[i], since[i] = c, now
			} else if now-since[i] >= int64(pipelineStall) {
				if i >= n {
					stuckC++
				} else if !s.prods[i].done.Load() {
					stuckP++
				}
			}
		}
		if stuckP > 0 && stuckC > 0 {
			s.stranded.Add(min(stuckP, stuckC))
			old := s.ep.Load()
			s.newEpoch()
			old.cancel()
			for i := range since {
				since[i] = now
			}
		}
	}
}

func (s *pipeline) completed() int64 {
	var n int64
	for _, c := range s.cons {
		n += c.n.n.Load()
	}
	return n
}

func (s *pipeline) openWindow(at int64) {
	s.from = at
	if s.traced {
		s.snap0 = snapMetrics(s.m)
		s.fab0, _ = s.q.FabricStats()
	}
	s.winOps = -s.completed()
	s.rec.Store(true)
}

func (s *pipeline) closeWindow(at int64) {
	s.rec.Store(false)
	s.to = at
	s.winOps += s.completed()
	if s.traced {
		s.snap1 = snapMetrics(s.m)
		s.fab1, _ = s.q.FabricStats()
	}
}

// finish stops the producers and lets the consumers take their last
// items, with the stall monitor still releasing strands, then cancels the
// run-scoped context to release the consumers. A producer whose last item
// is still pending after pipelineDrain fails it.
func (s *pipeline) finish() outcome {
	s.stop.Store(true)
	joinWithin(s.pdone, pipelineDrain)
	s.cancel()
	if !joinWithin(s.pdone, 10*time.Second) || !joinWithin(s.cdone, 10*time.Second) || !joinWithin(s.mdone, 10*time.Second) {
		hang(s.cfg, "pipeline: goroutines did not return after the run context was canceled")
	}
	var o outcome
	stranded := s.stranded.Load()

	var produced, consumed, corrupt int64
	var psum, csum uint64
	for _, p := range s.prods {
		o.attempted += p.attempted
		o.failed += p.failed
		produced += p.n.n.Load()
		psum += p.sum
	}
	o.latency = &hist{}
	for _, c := range s.cons {
		consumed += c.consumed
		csum += c.sum
		corrupt += c.corrupt
		o.latency.merge(&c.lat)
	}
	o.failed += corrupt
	switch {
	case consumed < produced:
		o.violations = append(o.violations, fmt.Sprintf("pipeline: %d items lost (%d put, %d taken)", produced-consumed, produced, consumed))
	case consumed > produced:
		o.violations = append(o.violations, fmt.Sprintf("pipeline: %d items duplicated (%d put, %d taken)", consumed-produced, produced, consumed))
	case csum != psum:
		o.violations = append(o.violations, "pipeline: items taken differ from items put (lost and duplicated)")
	}
	if corrupt > 0 {
		o.violations = append(o.violations, fmt.Sprintf("pipeline: %d corrupt payloads", corrupt))
	}
	if stranded > 0 {
		o.notes = append(o.notes, fmt.Sprintf("pipeline: %d Put/Take pairs stranded on the fabric, released after %v without progress and retried",
			stranded, pipelineStall))
	}
	if s.traced {
		o.layer, o.notes = s.layer(stranded, o.notes)
		o.absent = absentFor("the pipeline has no executor, generator or timed operations",
			"pool.", "loadgen.", "synchq.match_ratio", "park.early_returns")
	}
	return o
}

// layer computes the traced run's per-layer metrics.
func (s *pipeline) layer(stranded int64, notes []string) (map[string]float64, []string) {
	ops := max(s.winOps, 1)
	out := coreLayer(s.snap1.sub(s.snap0), ops)
	ss := &spanSet{}
	for i := range s.prods {
		ss.bufs = append(ss.bufs, s.prods[i].spans, s.cons[i].spans)
	}
	put := ss.durations(spPut, s.from, s.to, true)
	take := ss.durations(spTake, s.from, s.to, true)
	out["synchq.put_p50_ns"] = exactQuantile(put, 0.50)
	out["synchq.put_p99_ns"] = exactQuantile(put, 0.99)
	out["synchq.take_p50_ns"] = exactQuantile(take, 0.50)
	out["synchq.take_p99_ns"] = exactQuantile(take, 0.99)
	out["shard.width_end"] = float64(s.fab1.Width)
	out["shard.width_changes"] = float64(s.fab1.WidthChanges - s.fab0.WidthChanges)
	steals := s.fab1.Steals - s.fab0.Steals
	misses := s.fab1.ProbeMisses - s.fab0.ProbeMisses
	out["shard.steals_per_op"] = float64(steals) / float64(ops)
	if steals+misses > 0 {
		out["shard.probe_miss_ratio"] = float64(misses) / float64(steals+misses)
	}
	out["shard.stranded_ops"] = float64(2 * stranded)
	notes = append(notes, fmt.Sprintf("pipeline traced: %d put and %d take spans in the window", len(put), len(take)), ss.report(s.cfg))
	return out, notes
}
