package main

// The chaos scenario library. Every scenario drives a fresh instance of
// the structure under test through the shared workload engine while the
// configuration's property suite watches: always-properties are checked
// continuously on a ticker and exactly once after quiesce-and-drain,
// sometimes-properties collect evidence from operation outcomes and
// metrics deltas, and reachable-properties read the shared fault
// injector's site counters at verdict time.

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"synchq/internal/core"
	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/props"
	"synchq/internal/verify"
)

// Property names shared between registration (chaosrun.go) and the
// engine's evidence/failure paths.
const (
	propConservation = "conservation"
	propSynchrony    = "synchrony"
	propFIFO         = "per-producer-fifo"
	propNoStranded   = "no-stranded-waiter"
	propTimeout      = "timeout-expires"
	propCloseReject  = "close-rejects-op"
	propCancelRace   = "cancel-races-fulfill"
	propExecLedger   = "executor-ledger"
	propDrainForce   = "drain-reaches-force"
	propBatchPartial = "batch-partial-unwind"
	// The no-fault phase's properties (see runCalm).
	propTimedResolved = "calm-timed-ops-resolved"
	propEarlyTimeout  = "calm-timeout-before-deadline"
)

// chaosBatchMax is the largest batch the workload engine offers or polls
// in one operation; it widens the legal conservation slack, since one
// in-flight worker can now carry that many uncounted values.
const chaosBatchMax = 4

// Workload bounds: how long the engine waits for workers to return after
// stop/Close before declaring a stranded waiter, and the drain patience.
const (
	quiesceBound = 5 * time.Second
	closeBound   = 2 * time.Second
	drainWait    = 10 * time.Millisecond
	// calmLateBound is how long after its patience a timed operation of
	// the no-fault phase may still return and count as resolved: far
	// above any scheduling delay, far below a lost wake-up.
	calmLateBound = time.Second
)

// scenarioDef is one entry of the scenario library.
type scenarioDef struct {
	name string
	desc string
	// needsCancel marks scenarios meaningless without cancel support.
	needsCancel bool
	// execOnly marks scenarios that drive the executor tier's own
	// machinery (deadline shedding, graceful drain); they run only
	// against executor cores.
	execOnly bool
	// batchOnly marks scenarios that exercise the batched surface
	// directly; they run only against cores whose adapter implements
	// chaosBatcher.
	batchOnly bool
	run       func(rc *runCtx, dur time.Duration)
}

// scenarioLib is the library, in run order.
var scenarioLib = []scenarioDef{
	{
		name: "steady",
		desc: "balanced mixed workload with jittered patience",
		run: func(rc *runCtx, dur time.Duration) {
			rc.runWorkload("steady", dur, workloadTuning{})
		},
	},
	{
		name: "burst-open-close",
		desc: "bursty open/close cycles: Close mid-traffic, assert every waiter released",
		run:  runBurstOpenClose,
	},
	{
		name: "skew-flip",
		desc: "producer/consumer skew flips between 1:N and N:1 mid-run",
		run: func(rc *runCtx, dur time.Duration) {
			rc.runWorkload("skew-flip", dur, workloadTuning{skewPeriod: dur / 6})
		},
	},
	{
		name:        "cancel-storm",
		desc:        "every operation carries a short-fuse cancel channel",
		needsCancel: true,
		run: func(rc *runCtx, dur time.Duration) {
			rc.runWorkload("cancel-storm", dur, workloadTuning{
				cancelAfter: func(r *rand.Rand) time.Duration {
					return time.Duration(r.IntN(300)) * time.Microsecond
				},
			})
		},
	},
	{
		name: "churn",
		desc: "goroutine churn: workers live for a handful of ops and are respawned",
		run: func(rc *runCtx, dur time.Duration) {
			rc.runWorkload("churn", dur, workloadTuning{opsPerWorker: 24})
		},
	},
	{
		name: "slow-consumer",
		desc: "slow-consumer backpressure: impatient producers against dawdling consumers",
		run: func(rc *runCtx, dur time.Duration) {
			rc.runWorkload("slow-consumer", dur, workloadTuning{
				workerBoost: 4,
				producerPatience: func(r *rand.Rand) time.Duration {
					return time.Duration(r.IntN(150)) * time.Microsecond
				},
				consumerDelay: func(r *rand.Rand) time.Duration {
					return time.Duration(100+r.IntN(400)) * time.Microsecond
				},
			})
		},
	},
	{
		name: "procs-shift",
		desc: "GOMAXPROCS shifts between 1 and the run width mid-workload",
		run: func(rc *runCtx, dur time.Duration) {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wide := runtime.GOMAXPROCS(0)
			if wide < 2 {
				wide = 2
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				narrow := false
				for {
					select {
					case <-stop:
						return
					case <-time.After(25 * time.Millisecond):
						narrow = !narrow
						if narrow {
							runtime.GOMAXPROCS(1)
						} else {
							runtime.GOMAXPROCS(wide)
						}
					}
				}
			}()
			rc.runWorkload("procs-shift", dur, workloadTuning{})
			close(stop)
			wg.Wait()
			runtime.GOMAXPROCS(wide)
		},
	},
	{
		name: "width-shift",
		desc: "fabric width forced through grow/drain cycles mid-workload",
		run: func(rc *runCtx, dur time.Duration) {
			adapter := rc.build()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			if ws, ok := adapter.(widthShifter); ok {
				// Oscillate between a saturating contention signal and a
				// quiet one: each burst walks the controller through its
				// grow (or hysteresis-paced shrink) transitions, and every
				// transition runs the real activate/drain protocol — with
				// live traffic in flight and the injector free to freeze
				// the grow/drain windows.
				wg.Add(1)
				go func() {
					defer wg.Done()
					contended := true
					for {
						select {
						case <-stop:
							return
						case <-time.After(150 * time.Microsecond):
							for i := 0; i < 64; i++ {
								ws.ShiftWidth(contended)
							}
							contended = !contended
						}
					}
				}()
			}
			rc.driveWorkload("width-shift", adapter, dur, workloadTuning{}, nil)
			close(stop)
			wg.Wait()
		},
	},
	{
		name:      "batch-partial",
		desc:      "one consumer against a larger batch: the offer must deliver a prefix-exact partial fill and unwind the rest",
		batchOnly: true,
		run:       runBatchPartial,
	},
	{
		name:     "overload",
		desc:     "admission overload: µs-deadline chaff sheds at dispatch while real traffic flows",
		execOnly: true,
		run:      runOverload,
	},
	{
		name:     "drain-storm",
		desc:     "graceful drain mid-traffic: quiesce, bounded wait, forced reclaim, caller re-runs the returned",
		execOnly: true,
		run:      runDrainStorm,
	},
}

func scenarioByName(name string) (scenarioDef, bool) {
	for _, s := range scenarioLib {
		if s.name == name {
			return s, true
		}
	}
	return scenarioDef{}, false
}

// runCtx is the per-configuration harness context: the structure factory,
// the property suite, and the shared metrics handle and fault injector
// whose counters accumulate across the whole scenario library.
type runCtx struct {
	core  coreDef
	opt   optDef
	suite *props.Suite
	h     *metrics.Handle
	inj   *fault.Injector

	seed                 uint64
	producers, consumers int

	// nextProducer allocates value-tag ids unique across the whole
	// config run, so histories from different cycles never collide.
	nextProducer atomic.Int64

	// state is the scenario currently visible to the always-checkers.
	state atomic.Pointer[scenarioState]
}

// build constructs a fresh structure instance for one scenario (or one
// open/close cycle), wired to the shared handle and injector.
func (rc *runCtx) build() chaosStruct {
	cfg := rc.opt.apply(core.WaitConfig{Metrics: rc.h, Fault: rc.inj})
	return rc.core.build(cfg)
}

// scenarioState is the mutable invariant state of one scenario: the
// recorded history plus the counters the continuous checks read.
type scenarioState struct {
	name    string
	workers int64 // peak concurrent workload goroutines (for slack)
	slackHi int64 // legal offered-delivered gap mid-run
	slackLo int64 // legal gap the other way (takes counted before puts)
	rec     *verify.Recorder
	// adapter is the structure instance under test, for properties that
	// read structure-side ledgers (the executor-ledger check).
	adapter chaosStruct

	offered   atomic.Int64
	delivered atomic.Int64
	// inflight is offered-delivered maintained as ONE counter (+1 per
	// accepted offer, -1 per delivery), so the continuous checker reads
	// a consistent imbalance with a single load. Comparing separate
	// loads of offered and delivered would race with the workload: the
	// checker can be descheduled between the two loads, and every
	// transfer completing in that window skews the difference.
	inflight atomic.Int64

	finalized  atomic.Bool
	classified atomic.Pointer[verify.Classified]
	fifoErrs   atomic.Pointer[[]string]
}

func newScenarioState(rc *runCtx, name string, nworkers int) *scenarioState {
	workers := int64(nworkers)
	// One in-flight operation normally carries one uncounted value; on a
	// batch-capable core it can carry up to chaosBatchMax of them.
	perOp := int64(1)
	if rc.core.batch {
		perOp = chaosBatchMax
	}
	return &scenarioState{
		name:    name,
		workers: workers,
		slackHi: workers*perOp + 2 + rc.core.buffered,
		slackLo: workers*perOp + 2,
		rec:     verify.NewRecorder(),
	}
}

// producerOf recovers the producer tag from a workload value.
func producerOf(v int64) int64 { return v >> 40 }

// conservationCheck is the Always("conservation") checker. Mid-run the
// offered/delivered counters may legally diverge by the number of
// goroutines in flight (plus the structure's buffering capacity); at
// quiesce, after the drain, they must match exactly and the recorded
// history must contain no loss, duplication, or invention.
func (st *scenarioState) conservationCheck(final bool) error {
	if !final || !st.finalized.Load() {
		// A take can be counted before its put's +1 lands (the producer
		// is between the adapter returning OK and the counter update),
		// so the legal imbalance is symmetric in the worker count.
		if gap := st.inflight.Load(); gap > st.slackHi || gap < -st.slackLo {
			return fmt.Errorf("%s: offered/delivered gap %d exceeds in-flight slack [%d,%d]",
				st.name, gap, -st.slackLo, st.slackHi)
		}
		return nil
	}
	if off, del := st.offered.Load(), st.delivered.Load(); off != del {
		return fmt.Errorf("%s: offered=%d delivered=%d after drain", st.name, off, del)
	}
	if c := st.classified.Load(); c != nil && len(c.Conservation) > 0 {
		return fmt.Errorf("%s: %s", st.name, c.Conservation[0])
	}
	return nil
}

// synchronyCheck is the Always("synchrony") checker: every matched pair's
// put and take intervals must overlap. It is decidable only from the full
// history, so it reports at quiesce.
func (st *scenarioState) synchronyCheck(final bool) error {
	if !final || !st.finalized.Load() {
		return nil
	}
	if c := st.classified.Load(); c != nil && len(c.Synchrony) > 0 {
		return fmt.Errorf("%s: %s", st.name, c.Synchrony[0])
	}
	return nil
}

// fifoCheck is the Always("per-producer-fifo") checker for fair cores.
func (st *scenarioState) fifoCheck(final bool) error {
	if !final || !st.finalized.Load() {
		return nil
	}
	if errs := st.fifoErrs.Load(); errs != nil && len(*errs) > 0 {
		return fmt.Errorf("%s: %s", st.name, (*errs)[0])
	}
	return nil
}

// finalize runs the history checks once the workload has quiesced and the
// structure is drained, caching the classified violations for the final
// CheckAlways pass.
func (st *scenarioState) finalize(fifo bool) {
	history := st.rec.History()
	c := verify.CheckClassified(history, true)
	st.classified.Store(&c)
	if fifo {
		errs := verify.FIFOErrors(history, producerOf)
		st.fifoErrs.Store(&errs)
	}
	st.finalized.Store(true)
}

// workloadTuning parameterizes the shared engine.
type workloadTuning struct {
	// producerPatience / consumerPatience jitter each op's deadline;
	// nil selects the default 0–2ms band.
	producerPatience func(r *rand.Rand) time.Duration
	consumerPatience func(r *rand.Rand) time.Duration
	// cancelAfter, when non-nil, arms a cancel channel per operation.
	cancelAfter func(r *rand.Rand) time.Duration
	// consumerDelay, when non-nil, sleeps between polls (slow consumer).
	consumerDelay func(r *rand.Rand) time.Duration
	// opsPerWorker, when positive, retires each worker after that many
	// operations and respawns it (goroutine churn).
	opsPerWorker int
	// workerBoost multiplies the producer/consumer counts (0 = 1×); the
	// slow-consumer scenario uses it to pile enough waiters onto each
	// shard that interior-node cancellation (the clean path) runs.
	workerBoost int
	// skewPeriod, when positive, alternates which side is fully active:
	// odd phases throttle producers to one, even phases throttle
	// consumers to one.
	skewPeriod time.Duration
	// calm marks a no-fault phase: every timed operation is judged
	// against its patience (see judgeTimed).
	calm bool
}

func defaultPatience(r *rand.Rand) time.Duration {
	return time.Duration(r.IntN(2000)) * time.Microsecond
}

// runWorkload drives the standard mixed workload against one fresh
// structure instance and runs the property checks around it.
func (rc *runCtx) runWorkload(name string, dur time.Duration, tune workloadTuning) {
	adapter := rc.build()
	rc.driveWorkload(name, adapter, dur, tune, nil)
}

// driveWorkload is the engine shared by the plain scenarios and the
// open/close cycles: run producers and consumers against adapter for dur,
// optionally firing midway (the close trigger), then quiesce, drain,
// finalize, and run the final always-checks.
func (rc *runCtx) driveWorkload(name string, adapter chaosStruct, dur time.Duration, tune workloadTuning, midway func()) {
	boost := tune.workerBoost
	if boost < 1 {
		boost = 1
	}
	producers, consumers := rc.producers*boost, rc.consumers*boost
	st := newScenarioState(rc, name, producers+consumers)
	st.adapter = adapter
	rc.state.Store(st)
	defer rc.state.Store(nil)

	if tune.producerPatience == nil {
		tune.producerPatience = defaultPatience
	}
	if tune.consumerPatience == nil {
		tune.consumerPatience = defaultPatience
	}

	before := rc.h.Snapshot()
	stop := make(chan struct{})
	tickDone := make(chan struct{})

	// Continuous always-checks on a ticker for the lifetime of the
	// workload: the "checked continuously" half of the Always contract.
	go func() {
		defer close(tickDone)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				rc.suite.CheckAlways(false)
			}
		}
	}()

	// Phase word for skew flips: 0 = balanced, 1 = producer-heavy,
	// 2 = consumer-heavy.
	var phase atomic.Int32
	var flipWG sync.WaitGroup
	if tune.skewPeriod > 0 {
		flipWG.Add(1)
		go func() {
			defer flipWG.Done()
			p := int32(1)
			for {
				phase.Store(p)
				p = 3 - p // 1 ↔ 2
				select {
				case <-stop:
					return
				case <-time.After(tune.skewPeriod):
				}
			}
		}()
	}

	var wg sync.WaitGroup
	spawnProducer := func(slot int) { rc.producerLoop(&wg, st, adapter, slot, tune, &phase, stop) }
	spawnConsumer := func(slot int) { rc.consumerLoop(&wg, st, adapter, slot, tune, &phase, stop) }
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go spawnProducer(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go spawnConsumer(c)
	}

	if midway != nil {
		time.Sleep(dur / 2)
		midway()
		time.Sleep(dur - dur/2)
	} else {
		time.Sleep(dur)
	}
	close(stop)
	flipWG.Wait()

	bound := quiesceBound
	if midway != nil {
		// The structure was closed mid-run: waiters must be released by
		// the close itself, promptly.
		bound = closeBound
	}
	if !waitBounded(&wg, bound) {
		rc.suite.Lookup(propNoStranded).Fail(
			"%s: workload goroutines still blocked %v after %s",
			name, bound, map[bool]string{true: "Close", false: "stop"}[midway != nil])
		// Leave the stragglers behind; the run is already failed.
	} else if midway != nil {
		rc.suite.Lookup(propNoStranded).AddEvidence(int64(producers + consumers))
	}

	rc.drain(st, adapter)
	if q, ok := adapter.(quiescer); ok {
		if !q.Quiesce(closeBound) {
			rc.suite.Lookup(propNoStranded).Fail("%s: internal workers still live %v after close", name, closeBound)
		}
		rc.drain(st, adapter) // stragglers released by the quiesce
	}

	st.finalize(rc.core.fifo)
	rc.suite.CheckAlways(true)
	<-tickDone

	// Metrics-evidenced sometimes-properties (elimination fired, a
	// cross-shard steal completed) from this scenario's counter deltas.
	after := rc.h.Snapshot()
	for id, prop := range rc.core.sometimesCounters {
		rc.suite.Lookup(prop).AddEvidence(after.Get(id) - before.Get(id))
	}
}

// producerLoop runs one producer slot, respawning itself under churn.
func (rc *runCtx) producerLoop(wg *sync.WaitGroup, st *scenarioState, adapter chaosStruct, slot int, tune workloadTuning, phase *atomic.Int32, stop chan struct{}) {
	defer wg.Done()
	id := rc.nextProducer.Add(1)
	rng := rand.New(rand.NewPCG(rc.seed, uint64(id)))
	log := st.rec.NewThread()
	batcher, _ := adapter.(chaosBatcher)
	for seq := int64(0); ; seq++ {
		select {
		case <-stop:
			return
		default:
		}
		if phase.Load() == 2 && slot != 0 {
			// Consumer-heavy phase: all but one producer idles.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		// A batch consumes several sequence numbers, so the churn check
		// must catch the budget being jumped over, not just hit exactly.
		if tune.opsPerWorker > 0 && seq >= int64(tune.opsPerWorker) {
			// Churn: retire this goroutine and respawn the slot.
			wg.Add(1)
			go rc.producerLoop(wg, st, adapter, slot, tune, phase, stop)
			return
		}
		patience := tune.producerPatience(rng)
		cancel, raced := armCancel(rng, tune.cancelAfter)
		if rc.core.batch && rng.IntN(6) == 0 {
			// Multi-item offer. Values keep the producer tag and ascending
			// sequence low bits, so the FIFO checker can order them even
			// though every item logs the operation's single interval.
			k := 2 + rng.IntN(chaosBatchMax-1)
			orig := make([]int64, k)
			for j := range orig {
				orig[j] = id<<40 | (seq + int64(j))
			}
			vs := append([]int64(nil), orig...)
			inv := log.Begin()
			start := time.Now()
			n, stStatus := batcher.ChaosOfferBatch(vs, patience, cancel)
			rc.judgeTimed(st, tune, start, patience, stStatus, true)
			// The partial-fill contract: vs[n:] is exactly the undelivered
			// set (the core may have compacted it), so delivery per item is
			// decided by membership, not by position.
			und := make(map[int64]bool, k-n)
			for _, u := range vs[n:] {
				und[u] = true
			}
			for _, v := range orig {
				log.End(verify.Put, v, inv, !und[v])
			}
			seq += int64(k - 1)
			if rc.noteBatchOffer(st, n, k, stStatus, raced) {
				return
			}
			continue
		}
		v := id<<40 | seq
		inv := log.Begin()
		start := time.Now()
		stStatus := adapter.ChaosOffer(v, patience, cancel)
		// An executor offer has no deadline of its own: its Timeout is
		// the pool's saturation bound, not the patience.
		rc.judgeTimed(st, tune, start, patience, stStatus, !rc.core.executor)
		log.End(verify.Put, v, inv, stStatus == core.OK)
		if rc.noteOutcome(st, stStatus, true, raced) {
			return
		}
	}
}

// consumerLoop runs one consumer slot, respawning itself under churn.
func (rc *runCtx) consumerLoop(wg *sync.WaitGroup, st *scenarioState, adapter chaosStruct, slot int, tune workloadTuning, phase *atomic.Int32, stop chan struct{}) {
	defer wg.Done()
	id := rc.nextProducer.Add(1) // distinct PRNG stream, never tags values
	rng := rand.New(rand.NewPCG(rc.seed+1<<32, uint64(id)))
	log := st.rec.NewThread()
	batcher, _ := adapter.(chaosBatcher)
	for ops := 0; ; ops++ {
		select {
		case <-stop:
			return
		default:
		}
		if phase.Load() == 1 && slot != 0 {
			// Producer-heavy phase: all but one consumer idles.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if tune.opsPerWorker > 0 && ops >= tune.opsPerWorker {
			wg.Add(1)
			go rc.consumerLoop(wg, st, adapter, slot, tune, phase, stop)
			return
		}
		if tune.consumerDelay != nil {
			time.Sleep(tune.consumerDelay(rng))
		}
		patience := tune.consumerPatience(rng)
		cancel, raced := armCancel(rng, tune.cancelAfter)
		if rc.core.batch && rng.IntN(6) == 0 {
			// Multi-item poll: waits for the first value, fills the rest
			// from committed producers. Every received value logs with the
			// operation's single interval.
			max := 2 + rng.IntN(chaosBatchMax-1)
			inv := log.Begin()
			start := time.Now()
			buf, stStatus := batcher.ChaosPollBatch(max, patience, cancel)
			rc.judgeTimed(st, tune, start, patience, stStatus, true)
			if len(buf) == 0 {
				log.End(verify.Take, 0, inv, false)
			}
			for _, v := range buf {
				log.End(verify.Take, v, inv, true)
			}
			if rc.noteBatchPoll(st, len(buf), stStatus, raced) {
				return
			}
			continue
		}
		inv := log.Begin()
		start := time.Now()
		v, stStatus := adapter.ChaosPoll(patience, cancel)
		rc.judgeTimed(st, tune, start, patience, stStatus, true)
		log.End(verify.Take, v, inv, stStatus == core.OK)
		if rc.noteOutcome(st, stStatus, false, raced) {
			return
		}
	}
}

// armCancel builds a per-op cancel channel with a random fuse. The
// returned raced func reports, after the op completed, whether the fuse
// had already blown (used to evidence cancel-races-fulfill on OK).
func armCancel(rng *rand.Rand, after func(*rand.Rand) time.Duration) (<-chan struct{}, func() bool) {
	if after == nil {
		return nil, func() bool { return false }
	}
	ch := make(chan struct{})
	t := time.AfterFunc(after(rng), func() { close(ch) })
	return ch, func() bool { return !t.Stop() }
}

// noteOutcome updates counters and sometimes-evidence for one completed
// operation; it reports whether the worker should exit (structure closed).
func (rc *runCtx) noteOutcome(st *scenarioState, status core.Status, isPut bool, raced func() bool) (exit bool) {
	switch status {
	case core.OK:
		if isPut {
			st.offered.Add(1)
			st.inflight.Add(1)
		} else {
			st.delivered.Add(1)
			st.inflight.Add(-1)
		}
		if raced() {
			// The cancel fuse blew while the operation was in flight,
			// yet it still paired: a cancel raced a fulfill and the
			// fulfill won.
			rc.suite.Observe(propCancelRace)
		}
	case core.Timeout:
		rc.suite.Observe(propTimeout)
	case core.Closed:
		rc.suite.Observe(propCloseReject)
		return true
	}
	return false
}

// noteBatchOffer updates counters and sometimes-evidence for one completed
// multi-item offer that delivered n of k items; it reports whether the
// worker should exit (structure closed). A partial fill cut short by
// timeout, cancellation, or close is the evidence for batch-partial-unwind:
// the run was claimed, some positions paired, and the rest were reclaimed.
func (rc *runCtx) noteBatchOffer(st *scenarioState, n, k int, status core.Status, raced func() bool) (exit bool) {
	if n > 0 {
		st.offered.Add(int64(n))
		st.inflight.Add(int64(n))
	}
	if n > 0 && n < k && status != core.OK {
		rc.suite.Observe(propBatchPartial)
	}
	switch status {
	case core.OK:
		if raced() {
			rc.suite.Observe(propCancelRace)
		}
	case core.Timeout:
		rc.suite.Observe(propTimeout)
	case core.Closed:
		rc.suite.Observe(propCloseReject)
		return true
	}
	return false
}

// noteBatchPoll is noteBatchOffer's consumer-side twin for a poll that
// received got values. Closed may legally accompany a non-empty partial
// fill (the close landed mid-batch); the values count all the same.
func (rc *runCtx) noteBatchPoll(st *scenarioState, got int, status core.Status, raced func() bool) (exit bool) {
	if got > 0 {
		st.delivered.Add(int64(got))
		st.inflight.Add(int64(-got))
	}
	switch status {
	case core.OK:
		if raced() {
			rc.suite.Observe(propCancelRace)
		}
	case core.Timeout:
		rc.suite.Observe(propTimeout)
	case core.Closed:
		rc.suite.Observe(propCloseReject)
		return true
	}
	return false
}

// judgeTimed checks one timed operation of a no-fault phase, begun at
// start with the given patience. Any outcome but OK or Timeout, or a
// return more than calmLateBound after the patience, fails
// timed-ops-resolved. With the injector off no timer is skewed, so an
// expiry before the patience ran out reaches the unreachable
// timeout-before-deadline; deadline is false for operations whose
// Timeout does not mean their patience ran out.
func (rc *runCtx) judgeTimed(st *scenarioState, tune workloadTuning, start time.Time, patience time.Duration, status core.Status, deadline bool) {
	if !tune.calm {
		return
	}
	took := time.Since(start)
	switch {
	case status != core.OK && status != core.Timeout:
		rc.suite.Lookup(propTimedResolved).Fail("%s: timed op ended %v, want OK or Timeout", st.name, status)
	case took > patience+calmLateBound:
		rc.suite.Lookup(propTimedResolved).Fail("%s: timed op with patience %v returned after %v", st.name, patience, took)
	default:
		rc.suite.Observe(propTimedResolved)
	}
	if deadline && status == core.Timeout && took < patience {
		rc.suite.Lookup(propEarlyTimeout).Fail("%s: timed op with patience %v expired after %v", st.name, patience, took)
	}
}

// calmPatience is the no-fault phase's patience band: short enough that
// a good share of operations expire, so the deadline checks have work.
func calmPatience(r *rand.Rand) time.Duration {
	return time.Duration(r.IntN(250)) * time.Microsecond
}

// runCalm follows a scenario's fault window with a short no-fault phase,
// the "during a period of no faults" half of the property contract: a
// fresh instance built without the injector (so no CAS failure,
// preemption, spurious wake-up or timer skew) runs the standard workload
// with short patience while judgeTimed watches every timed operation and
// the always-invariants keep running.
func (rc *runCtx) runCalm(name string, dur time.Duration) {
	adapter := rc.core.build(rc.opt.apply(core.WaitConfig{Metrics: rc.h}))
	rc.driveWorkload(name+"/calm", adapter, dur, workloadTuning{
		calm:             true,
		producerPatience: calmPatience,
		consumerPatience: calmPatience,
	}, nil)
}

// drain empties the structure after quiesce, recording the takes so the
// history stays conservation-complete. A synchronous structure must come
// up empty immediately; the pool's results buffer legally holds stragglers.
func (rc *runCtx) drain(st *scenarioState, adapter chaosStruct) {
	log := st.rec.NewThread()
	for {
		inv := log.Begin()
		v, status := adapter.ChaosPoll(drainWait, nil)
		log.End(verify.Take, v, inv, status == core.OK)
		if status != core.OK {
			return
		}
		st.delivered.Add(1)
		st.inflight.Add(-1)
	}
}

// waitBounded waits for wg with a timeout.
func waitBounded(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// runOverload drives the standard workload while a chaff storm floods the
// executor with tasks whose deadlines lapse between admission and
// dispatch: the shed path, the admission budget, and the bounded
// backpressure all run under live traffic. The chaff stops at three
// quarters of the run so the tail and the quiesce see a normal load.
func runOverload(rc *runCtx, dur time.Duration) {
	adapter := rc.build()
	ex := adapter.(*poolChaos) // overload is execOnly: always the pool
	chaffUntil := time.Now().Add(dur * 3 / 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(chaffUntil) {
			ex.ChaffStorm(64)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	rc.driveWorkload("overload", adapter, dur, workloadTuning{}, nil)
	wg.Wait()
}

// runDrainStorm closes the executor the production way: a bounded
// graceful drain fires mid-traffic with deliberately wedged workers, so
// the forced-reclaim phase runs; reclaimed tasks are re-run caller-side,
// keeping every accepted value delivered exactly once. Late submitters
// must see the quiesce (ErrDraining/ErrShutdown → Closed), and the pool
// must come to rest leak-free with an exact ledger.
func runDrainStorm(rc *runCtx, dur time.Duration) {
	adapter := rc.build()
	ex := adapter.(*poolChaos) // drain-storm is execOnly: always the pool
	rc.driveWorkload("drain-storm", adapter, dur, workloadTuning{}, func() {
		if ex.DrainStorm() {
			rc.suite.Observe(propDrainForce)
		}
	})
}

// runBatchPartial is the deterministic partial-fill scenario: one consumer
// with generous patience against a 3-item offer with a short fuse. Exactly
// one item pairs; the offer must report (1, Timeout), hand back the two
// undelivered items in the retry slice, and leave nothing pollable — the
// multi-cell unwind path runs on every cycle rather than waiting for the
// random workload to stumble into it.
func runBatchPartial(rc *runCtx, dur time.Duration) {
	_ = dur // three fixed cycles; each is bounded by its own patiences
	const cycles = 3
	for i := 0; i < cycles; i++ {
		adapter := rc.build()
		batcher := adapter.(chaosBatcher)
		st := newScenarioState(rc, fmt.Sprintf("batch-partial/%d", i), 2)
		st.adapter = adapter
		rc.state.Store(st)

		id := rc.nextProducer.Add(1)
		clog := st.rec.NewThread()
		done := make(chan struct{})
		go func() {
			defer close(done)
			inv := clog.Begin()
			v, status := adapter.ChaosPoll(200*time.Millisecond, nil)
			clog.End(verify.Take, v, inv, status == core.OK)
			if status == core.OK {
				st.delivered.Add(1)
				st.inflight.Add(-1)
			}
		}()

		orig := []int64{id << 40, id<<40 | 1, id<<40 | 2}
		vs := append([]int64(nil), orig...)
		log := st.rec.NewThread()
		inv := log.Begin()
		n, status := batcher.ChaosOfferBatch(vs, 40*time.Millisecond, nil)
		und := make(map[int64]bool, len(vs)-n)
		for _, u := range vs[n:] {
			und[u] = true
		}
		for _, v := range orig {
			log.End(verify.Put, v, inv, !und[v])
		}
		rc.noteBatchOffer(st, n, len(orig), status, func() bool { return false })

		<-done
		rc.drain(st, adapter)
		adapter.Close()
		st.finalize(rc.core.fifo)
		rc.suite.CheckAlways(true)
		rc.state.Store(nil)
	}
}

// runBurstOpenClose is the open/close-cycle scenario: several short
// workload bursts, each against a fresh structure that is closed while
// traffic is in full flight. Every blocked waiter must be released
// promptly with the Closed status (no stranded waiter), late operations
// must be rejected, and the per-cycle histories must still conserve and
// pair synchronously.
func runBurstOpenClose(rc *runCtx, dur time.Duration) {
	const cycles = 3
	cycleDur := dur / cycles
	if cycleDur < 30*time.Millisecond {
		cycleDur = 30 * time.Millisecond
	}
	for i := 0; i < cycles; i++ {
		adapter := rc.build()
		rc.driveWorkload(fmt.Sprintf("burst-open-close/%d", i), adapter, cycleDur,
			workloadTuning{}, adapter.Close)
	}
}
