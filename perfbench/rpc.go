package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"synchq"
	"synchq/pool"
)

// The rpc workload: the paper's executor user (Fig. 6). One generator
// submits requests on a fixed schedule (an open loop), each through
// SubmitContext with a per-request deadline, to a cached pool over the
// unfair dual stack. Each task burns a fixed amount of CPU and never
// sleeps.
const (
	rpcRate       = 20_000                 // requests per second
	rpcDeadline   = 100 * time.Millisecond // per-request latency limit, from due time
	rpcWorkRounds = 512                    // mix rounds per task, about 1.5µs of CPU
	rpcWarmReqs   = 2_000                  // requests before the window opens
	rpcDrainLimit = 5 * time.Second        // bound on waiting for accepted tasks
	rpcSpinLimit  = 2 * time.Millisecond   // below this gap the generator yields instead of sleeping
	rpcPeriod     = int64(time.Second) / rpcRate
)

const (
	reqAccepted uint8 = 1 + iota
	reqRefused
)

type rpc struct {
	cfg    config
	q      *synchq.SynchronousQueue[pool.Task]
	m      *synchq.Metrics
	p      *pool.Pool
	traced bool

	base     int64 // due time of request 0
	n        int   // request capacity
	status   []uint8
	runs     []uint32
	sink     []uint64
	subStart []int64
	subEnd   []int64
	start    []int64
	end      []int64

	stop  atomic.Bool
	sent  atomic.Int64
	done  counter
	gdone chan struct{}

	from, to     int64
	snap0, snap1 counterSnap
	ps0, ps1     pool.Stats
	winOps       int64
}

func setupRPC(cfg config, traced bool, window float64) session {
	n := int((window+2)*rpcRate) + rpcWarmReqs
	s := &rpc{
		cfg: cfg, traced: traced, n: n,
		status: make([]uint8, n), runs: make([]uint32, n), sink: make([]uint64, n),
		subStart: make([]int64, n), subEnd: make([]int64, n),
		start: make([]int64, n), end: make([]int64, n),
		gdone: make(chan struct{}),
	}
	var pcfg pool.Config
	if traced {
		s.m = synchq.NewMetrics()
		s.q = synchq.New[pool.Task](synchq.Instrument(s.m))
		pcfg.Metrics = s.m.RawHandle()
	} else {
		s.q = synchq.New[pool.Task]()
	}
	s.p = pool.New(s.q, pcfg)
	s.base = nanotime()
	go s.generate()
	warmUntil := nanotime() + int64(warmLimit)
	for s.sent.Load() < rpcWarmReqs && nanotime() < warmUntil {
		time.Sleep(time.Millisecond)
	}
	return s
}

// input is request i's seeded task input.
func (s *rpc) input(i int) uint64 { return mix(s.cfg.seed ^ uint64(i)) }

func (s *rpc) generate() {
	defer close(s.gdone)
	for i := 0; i < s.n && !s.stop.Load(); i++ {
		due := s.base + int64(i)*rpcPeriod
		for now := nanotime(); now < due; now = nanotime() {
			if due-now > int64(rpcSpinLimit) {
				time.Sleep(time.Duration(due-now) - time.Millisecond)
			} else {
				runtime.Gosched()
			}
		}
		s.submit(i, due)
		s.sent.Store(int64(i + 1))
	}
}

func (s *rpc) submit(i int, due int64) {
	t0 := nanotime()
	ctx, cancel := context.WithDeadline(context.Background(), wallAt(due+int64(rpcDeadline)))
	err := s.p.SubmitContext(ctx, func() { s.exec(i) })
	cancel()
	s.subStart[i], s.subEnd[i] = t0, nanotime()
	if err == nil {
		s.status[i] = reqAccepted
	} else {
		s.status[i] = reqRefused
	}
}

func (s *rpc) exec(i int) {
	start := nanotime()
	x := s.input(i)
	for r := 0; r < rpcWorkRounds; r++ {
		x = mix(x)
	}
	s.sink[i] = x
	s.start[i], s.end[i] = start, nanotime()
	atomic.AddUint32(&s.runs[i], 1)
	s.done.n.Add(1)
}

func (s *rpc) completed() int64 { return s.done.n.Load() }

func (s *rpc) openWindow(at int64) {
	s.from = at
	if s.traced {
		s.snap0 = snapMetrics(s.m)
	}
	s.ps0 = s.p.Stats()
	s.winOps = -s.completed()
}

func (s *rpc) closeWindow(at int64) {
	s.to = at
	s.winOps += s.completed()
	s.ps1 = s.p.Stats()
	if s.traced {
		s.snap1 = snapMetrics(s.m)
	}
}

// finish stops the generator, waits for every accepted task to run or
// be shed, shuts the pool down, and checks the executor's ledger and
// that each accepted request ran exactly once.
func (s *rpc) finish() outcome {
	s.stop.Store(true)
	if !joinWithin(s.gdone, rpcDrainLimit) {
		hang(s.cfg, "rpc: generator did not stop")
	}
	for until := nanotime() + int64(rpcDrainLimit); nanotime() < until; time.Sleep(time.Millisecond) {
		if st := s.p.Stats(); st.Pending+st.Active == 0 && st.Completed+st.Shed == st.Accepted {
			break
		}
	}
	s.p.Shutdown()
	waited := make(chan struct{})
	go func() { s.p.Wait(); close(waited) }()
	if !joinWithin(waited, 10*time.Second) {
		hang(s.cfg, "rpc: pool workers did not exit after Shutdown")
	}

	var o outcome
	st := s.p.Stats()
	if gap := st.ConservationGap(); gap != 0 {
		o.violations = append(o.violations, fmt.Sprintf("rpc: executor ledger gap %d (%+v)", gap, st))
	}
	sent := int(s.sent.Load())
	o.attempted = int64(sent)
	var refused, unrun, dup, ranRefused int64
	o.latency = &hist{}
	for i := 0; i < sent; i++ {
		switch {
		case s.runs[i] > 1:
			dup++
		case s.status[i] == reqRefused:
			refused++
			if s.runs[i] != 0 {
				ranRefused++
			}
		case s.runs[i] == 0:
			unrun++
		default:
			if due := s.base + int64(i)*rpcPeriod; due >= s.from && due < s.to {
				o.latency.record(s.start[i] - due)
			}
		}
	}
	if dup > 0 || ranRefused > 0 {
		o.violations = append(o.violations, fmt.Sprintf("rpc: %d tasks ran more than once, %d refused tasks ran", dup, ranRefused))
	}
	if unrun != st.Shed {
		o.violations = append(o.violations, fmt.Sprintf("rpc: %d accepted tasks never ran but the pool shed %d", unrun, st.Shed))
	}
	o.failed = refused + unrun
	if o.failed > 0 {
		o.notes = append(o.notes, fmt.Sprintf("rpc: %d of %d requests failed (%d refused, %d shed past deadline)", o.failed, sent, refused, unrun))
	}
	if s.traced {
		o.layer, o.notes = s.layer(o.notes)
		o.absent = absentFor("the rpc queue is a plain dual stack driven by the pool; no demand hand-offs, fabric or timed operations",
			"synchq.put", "synchq.take", "shard.", "synchq.match_ratio", "park.early_returns")
	}
	return o
}

// layer builds the traced run's spans from the per-request timestamps —
// request (due time to task end) with its submit, queue-wait and exec
// children — and computes the per-layer metrics.
func (s *rpc) layer(notes []string) (map[string]float64, []string) {
	ops := max(s.winOps, 1)
	out := coreLayer(s.snap1.sub(s.snap0), ops)
	buf := newSpanBuf(4 * int(s.sent.Load()))
	for i := 0; i < int(s.sent.Load()); i++ {
		due := s.base + int64(i)*rpcPeriod
		id := uint64(i)
		end := s.subEnd[i]
		if s.runs[i] == 1 {
			end = s.end[i]
		}
		root := buf.add(span{start: due, end: end, req: id, parent: -1, name: spRequest})
		buf.add(span{start: s.subStart[i], end: s.subEnd[i], req: id, parent: root, name: spSubmit})
		if s.runs[i] == 1 {
			buf.add(span{start: s.subStart[i], end: s.start[i], req: id, parent: root, name: spQueueWait})
			buf.add(span{start: s.start[i], end: s.end[i], req: id, parent: root, name: spExec})
		}
	}
	ss := &spanSet{bufs: []*spanBuf{buf}}
	from, to := s.from, s.to
	submit := ss.durations(spSubmit, from, to, true)
	wait := ss.durations(spQueueWait, from, to, false)
	exec := ss.durations(spExec, from, to, true)
	late := ss.durations(spRequest, from, to, true)
	out["pool.submit_p50_ns"] = exactQuantile(submit, 0.50)
	out["pool.submit_p99_ns"] = exactQuantile(submit, 0.99)
	out["pool.queue_wait_p50_ns"] = exactQuantile(wait, 0.50)
	out["pool.queue_wait_p99_ns"] = exactQuantile(wait, 0.99)
	out["pool.exec_p50_ns"] = exactQuantile(exec, 0.50)
	out["loadgen.late_p99_us"] = exactQuantile(late, 0.99) / 1e3
	if acc := s.ps1.Accepted - s.ps0.Accepted; acc > 0 {
		out["pool.idle_handoff_ratio"] = float64(s.ps1.Handoffs-s.ps0.Handoffs) / float64(acc)
		out["pool.spawned_per_1k"] = 1000 * float64(s.ps1.Spawned-s.ps0.Spawned) / float64(acc)
	}
	notes = append(notes, fmt.Sprintf("rpc traced: %d requests in the window", len(submit)), ss.report(s.cfg))
	return out, notes
}
