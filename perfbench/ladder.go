package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/internal/core"
	"synchq/internal/park"
	"synchq/internal/segq"
)

// The layer ladder runs the pipeline's traffic — procs producers and
// procs consumers making demand hand-offs — through each layer's own
// exported entry point, bottom up. Only the metrics rung is
// instrumented, so the metrics, shard and exchanger rungs each add one
// layer to the synchq rung, and a rung's self cost is its ns/op minus
// that of the rung it adds to.

// handoff is one rung's Put and Take; ok is false once ctx is done.
type handoff struct {
	put  func(item) bool
	take func() (item, bool)
	// cancelable is false when the calls cannot observe ctx (the Go
	// channel); the rung then ends by handing each consumer a poison item.
	cancelable bool
}

type rung struct {
	nsKey, allocKey string // metric names; allocKey may be empty
	pairs           int
	build           func(ctx context.Context) handoff
}

// poison marks the item that tells a ladder consumer to return.
const poison = ^uint32(0)

// ladderGrace is how long a rung's producers get to hand off their last
// items before a strand is released by cancelling the rung's context.
const ladderGrace = time.Second

func ctxHandoff(q interface {
	PutContext(context.Context, item) error
	TakeContext(context.Context) (item, error)
}, ctx context.Context) handoff {
	return handoff{
		put: func(v item) bool { return q.PutContext(ctx, v) == nil },
		take: func() (item, bool) {
			v, err := q.TakeContext(ctx)
			return v, err == nil
		},
		cancelable: true,
	}
}

func deadlineHandoff(q interface {
	PutDeadline(item, time.Time, <-chan struct{}) core.Status
	TakeDeadline(time.Time, <-chan struct{}) (item, core.Status)
}, ctx context.Context) handoff {
	done := ctx.Done()
	return handoff{
		put: func(v item) bool { return q.PutDeadline(v, time.Time{}, done) == core.OK },
		take: func() (item, bool) {
			v, st := q.TakeDeadline(time.Time{}, done)
			return v, st == core.OK
		},
		cancelable: true,
	}
}

func rungs(procs int) []rung {
	return []rung{
		{"baseline.chan_ns_per_op", "", procs, func(context.Context) handoff {
			q := synchq.NewGoChannel[item]()
			return handoff{
				put:  func(v item) bool { q.Put(v); return true },
				take: func() (item, bool) { return q.Take(), true },
			}
		}},
		{"core.queue_ns_per_op", "core.queue_alloc_bytes", procs, func(ctx context.Context) handoff {
			return deadlineHandoff(core.NewDualQueue[item](core.WaitConfig{}), ctx)
		}},
		{"core.stack_ns_per_op", "core.stack_alloc_bytes", procs, func(ctx context.Context) handoff {
			return deadlineHandoff(core.NewDualStack[item](core.WaitConfig{}), ctx)
		}},
		{"segq.ns_per_op", "", procs, func(ctx context.Context) handoff {
			return deadlineHandoff(segq.New[item](core.WaitConfig{}), ctx)
		}},
		{"synchq.ns_per_op", "", procs, func(ctx context.Context) handoff {
			return ctxHandoff(synchq.New[item](synchq.Fair(true)), ctx)
		}},
		{"metrics.ns_per_op", "", procs, func(ctx context.Context) handoff {
			return ctxHandoff(synchq.New[item](synchq.Fair(true), synchq.Instrument(synchq.NewMetrics())), ctx)
		}},
		{"shard.ns_per_op", "", procs, func(ctx context.Context) handoff {
			return ctxHandoff(synchq.New[item](synchq.Fair(true), synchq.AutoShard()), ctx)
		}},
		{"shard.ns_per_op_1p", "", 1, func(ctx context.Context) handoff {
			return ctxHandoff(synchq.New[item](synchq.Fair(true), synchq.AutoShard()), ctx)
		}},
		{"exchanger.ns_per_op", "", procs, func(ctx context.Context) handoff {
			return ctxHandoff(synchq.NewEliminatingQueue[item](synchq.Fair(true), synchq.EliminatingAdaptive()), ctx)
		}},
	}
}

// runLadder runs every rung for an equal share of seconds and returns
// the per-layer metrics, plus any conservation failures.
func runLadder(cfg config, seconds float64) (map[string]float64, outcome) {
	rs := rungs(cfg.procs)
	each := time.Duration(seconds / float64(len(rs)+1) * float64(time.Second))
	out := map[string]float64{}
	var o outcome
	var line []string
	for _, r := range rs {
		ns, alloc, err := runRung(cfg, r, each)
		if err != nil {
			o.violations = append(o.violations, err.Error())
			continue
		}
		if math.IsNaN(ns) {
			o.notes = append(o.notes, fmt.Sprintf("ladder: rung %s completed no hand-off in its window", r.nsKey))
		}
		out[r.nsKey] = ns
		if r.allocKey != "" {
			out[r.allocKey] = alloc
		}
		line = append(line, fmt.Sprintf("%s=%.0f", r.nsKey, ns))
	}
	out["park.roundtrip_ns"] = parkRoundtrip(each)
	o.notes = append(o.notes, fmt.Sprintf("ladder ns/op (%v per rung): %v park.roundtrip=%.0f", each, line, out["park.roundtrip_ns"]))
	return out, o
}

// runRung drives one rung for d after a warm-up of d/4 and returns its
// ns and heap bytes per hand-off.
func runRung(cfg config, r rung, d time.Duration) (nsPerOp, allocPerOp float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := r.build(ctx)
	var stop atomic.Bool
	counts := make([]counter, r.pairs)
	var produced atomic.Int64
	var pwg, cwg sync.WaitGroup
	for i := 0; i < r.pairs; i++ {
		pwg.Add(1)
		cwg.Add(1)
		go func(id uint32) {
			defer pwg.Done()
			for seq := uint32(0); !stop.Load(); seq++ {
				if !h.put(item{prod: id, seq: seq}) {
					return
				}
				produced.Add(1)
			}
		}(uint32(i))
		go func(c *counter) {
			defer cwg.Done()
			for {
				v, ok := h.take()
				if !ok || v.prod == poison {
					return
				}
				c.n.Add(1)
			}
		}(&counts[i])
	}
	total := func() int64 {
		var n int64
		for i := range counts {
			n += counts[i].n.Load()
		}
		return n
	}
	time.Sleep(d / 4)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, c0 := nanotime(), total()
	time.Sleep(d)
	t1, c1 := nanotime(), total()
	runtime.ReadMemStats(&m1)

	stop.Store(true)
	pdone, cdone := make(chan struct{}), make(chan struct{})
	go func() { pwg.Wait(); close(pdone) }()
	go func() { cwg.Wait(); close(cdone) }()
	if !joinWithin(pdone, ladderGrace) {
		cancel() // a stranded pair: release it; the count check still holds
	}
	if !joinWithin(pdone, 10*time.Second) {
		hang(cfg, "ladder: producers of rung "+r.nsKey+" did not return")
	}
	if h.cancelable {
		cancel()
	} else {
		for i := 0; i < r.pairs; i++ {
			h.put(item{prod: poison})
		}
	}
	if !joinWithin(cdone, 10*time.Second) {
		hang(cfg, "ladder: consumers of rung "+r.nsKey+" did not return")
	}
	if n := total(); n != produced.Load() {
		return 0, 0, fmt.Errorf("ladder %s: %d items put but %d taken", r.nsKey, produced.Load(), n)
	}
	ops := c1 - c0
	if ops <= 0 {
		// Every pair stranded before the window: a failure of the layer,
		// not of the check, so the rung reads as not measured.
		return math.NaN(), math.NaN(), nil
	}
	return float64(t1-t0) / float64(ops), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops), nil
}

// parkRoundtrip ping-pongs two goroutines through park.Parker for d and
// returns the ns per round trip (Unpark, Park on each side).
func parkRoundtrip(d time.Duration) float64 {
	a, b := park.New(), park.New()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			b.Park()
			if stop.Load() {
				return
			}
			a.Unpark()
		}
	}()
	var n int64
	t0 := nanotime()
	end := t0 + int64(d)
	for {
		b.Unpark()
		a.Park()
		n++
		if n&255 == 0 && nanotime() >= end {
			break
		}
	}
	el := nanotime() - t0
	stop.Store(true)
	b.Unpark()
	<-done
	return float64(el) / float64(n)
}
