// Command perfbench is synchq's end-to-end and per-layer benchmark.
//
// It drives three workloads through the public API (package synchq and
// the pool executor) and prints, as the last line of standard output, one
// JSON object with the run's correctness verdict, the operations attempted
// and failed, and its metrics:
//
//	perfbench --workload pipeline|rpc|timeouts --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end set, measured untraced.
// With --trace 1 the run measures the workload twice — untraced, then
// traced with spans and the program's own counters — and then runs the
// layer ladder; the metrics are the per-layer set. perfbench/README.md
// defines every metric and says which layer it belongs to.
//
// A run exits nonzero, without a result line, when an item is lost or
// duplicated, the executor's ledger does not balance, or the whole-run
// watchdog fires (it writes every goroutine's stack first).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run builds, starts and warms
// up its workload; setup_s is the median, so one slow start does not move
// it.
const setupRepeats = 5

// outDir holds what a run leaves behind (span dumps, watchdog stacks),
// inside the checkout's build directory.
const outDir = ".bench_build/perfbench"

// warmLimit bounds a warm-up, so a workload whose waiters strand during
// set-up still reaches its window (and reports the strand) instead of
// waiting for the watchdog.
const warmLimit = 5 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
}

// session is one set-up instance of a workload: built, its goroutines
// started and warmed up, ready for its measured window.
type session interface {
	// completed is the running count of completed operations.
	completed() int64
	// openWindow and closeWindow bound the measured window; sessions
	// record latencies and snapshot counters between them.
	openWindow(at int64)
	closeWindow(at int64)
	// finish stops the load, drains it, checks it and reports.
	finish() outcome
}

// outcome is what a finished session reports.
type outcome struct {
	attempted, failed int64
	// violations are correctness failures: lost or duplicated items, a
	// ledger gap. Any of them fails the run.
	violations []string
	// latency holds the workload's end-to-end latency samples (ns) from
	// the measured window.
	latency *hist
	// layer holds per-layer values; traced sessions only.
	layer map[string]float64
	// absent names per-layer metrics this workload cannot produce, with
	// the reason; they are reported as 0.
	absent map[string]string
	// notes are printed as comment lines.
	notes []string
}

// window is what the measured window observed.
type window struct {
	ops        int64
	opsPerS    float64 // trimmed mean of the per-slice rates
	allocPerOp float64
}

type workload struct {
	// setup builds a session whose measured window will last window
	// seconds. traced turns on spans and instrumentation.
	setup func(cfg config, traced bool, window float64) session
	// latencyName is the workload's own name for its latency, reported
	// as latency_p50_us (end to end) and latency_p99_us (per layer).
	latencyName string
}

var workloads = map[string]workload{
	"pipeline": {setupPipeline, "handoff"},
	"rpc":      {setupRPC, "dispatch"},
	"timeouts": {setupTimeouts, "overshoot"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: pipeline, rpc or timeouts")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload pipeline|rpc|timeouts --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, procs: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.procs)
	startWatchdog(cfg)

	res := run(cfg, wl)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(cfg config, wl workload) result {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d numcpu=%d %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), describe(cfg))
	res := result{Correct: true, Metrics: map[string]metric{}}
	total := outcome{}
	add := func(o outcome) {
		total.attempted += o.attempted
		total.failed += o.failed
		total.violations = append(total.violations, o.violations...)
		for _, n := range o.notes {
			fmt.Println("#", n)
		}
	}

	if !cfg.trace {
		var setups []float64
		var s session
		for i := 0; i < setupRepeats; i++ {
			t0 := nanotime()
			if i == 0 {
				t0 = 0 // the first set-up counts from process start
			}
			s = wl.setup(cfg, false, cfg.seconds)
			setups = append(setups, float64(nanotime()-t0)/1e9)
			if i < setupRepeats-1 {
				add(s.finish())
			}
		}
		w := measure(s, cfg.seconds)
		o := s.finish()
		add(o)
		p50, p99 := o.latency.quantile(0.50)/1e3, o.latency.quantile(0.99)/1e3
		fmt.Printf("# %s_p50_us=%.3f %s_p99_us=%.3f samples=%d window_ops=%d\n",
			wl.latencyName, p50, wl.latencyName, p99, o.latency.n, w.ops)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{w.opsPerS, "op/s"}
		res.Metrics["alloc_bytes_per_op"] = metric{w.allocPerOp, "B"}
		res.Metrics["latency_p50_us"] = metric{p50, "us"}
	} else {
		// Untraced reference, then the traced run, then the ladder.
		plain := wl.setup(cfg, false, 0.3*cfg.seconds)
		wPlain := measure(plain, 0.3*cfg.seconds)
		po := plain.finish()
		add(po)

		traced := wl.setup(cfg, true, 0.3*cfg.seconds)
		wTraced := measure(traced, 0.3*cfg.seconds)
		o := traced.finish()
		add(o)
		layer := o.layer
		layer["trace.overhead_ratio"] = wTraced.opsPerS / wPlain.opsPerS
		layer["latency_p99_us"] = po.latency.quantile(0.99) / 1e3
		ladder, lo := runLadder(cfg, 0.4*cfg.seconds)
		add(lo)
		for k, v := range ladder {
			layer[k] = v
		}
		for _, m := range perLayer {
			v, ok := layer[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				why := o.absent[m.name]
				if why == "" {
					why = "not measured"
				}
				fmt.Printf("# absent on %s: %s (%s); reported as 0\n", cfg.workload, m.name, why)
				v = 0
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	if res.Attempted < 1 {
		total.violations = append(total.violations, "no operation attempted")
	}
	for _, v := range total.violations {
		fmt.Println("# VIOLATION:", v)
		res.Correct = false
	}
	return res
}

// measure runs the measured window on s. The operation rate is sampled
// in half-second slices and reported as their trimmed mean: dropping the
// extreme tenth on each side keeps a burst of interference from outside
// the process out of the result, and averaging the rest (rather than
// taking the median) keeps the result steady when the program alternates
// between two operating regimes within a run, as the shard fabric does.
func measure(s session, seconds float64) window {
	slices := int(math.Round(seconds / 0.5))
	if slices < 3 {
		slices = 3
	}
	slice := int64(seconds * 1e9 / float64(slices))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := nanotime()
	s.openWindow(t0)
	c0 := s.completed()
	rates := make([]float64, 0, slices)
	prevT, prevC := t0, c0
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Duration(t0 + int64(i)*slice - nanotime()))
		t, c := nanotime(), s.completed()
		rates = append(rates, float64(c-prevC)/(float64(t-prevT)/1e9))
		prevT, prevC = t, c
	}
	s.closeWindow(prevT)
	runtime.ReadMemStats(&m1)
	kops := make([]string, len(rates))
	for i, r := range rates {
		kops[i] = fmt.Sprintf("%.0f", r/1e3)
	}
	fmt.Printf("# slice rates (kop/s): %s\n", strings.Join(kops, " "))
	w := window{ops: prevC - c0, opsPerS: trimmedMean(rates)}
	if w.ops > 0 {
		w.allocPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(w.ops)
	}
	return w
}

// startWatchdog bounds the whole run: if it has not finished well after
// its budget, every goroutine's stack is written out and the run fails
// instead of wedging.
func startWatchdog(cfg config) {
	limit := time.Duration((2*cfg.seconds + 45) * float64(time.Second))
	if limit > 165*time.Second {
		limit = 165 * time.Second
	}
	time.AfterFunc(limit, func() { hang(cfg, fmt.Sprintf("watchdog: run exceeded %v", limit)) })
}

// hang reports a run that cannot finish — the watchdog fired, or
// goroutines ignored their cancellation — with every goroutine's stack,
// and exits without a result line.
func hang(cfg config, why string) {
	buf := make([]byte, 16<<20)
	buf = buf[:runtime.Stack(buf, true)]
	fmt.Fprintf(os.Stderr, "perfbench: %s; goroutine stacks follow\n%s\n", why, buf)
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		path := filepath.Join(outDir, fmt.Sprintf("stacks-%s-%d.txt", cfg.workload, cfg.seed))
		if err := os.WriteFile(path, buf, 0o644); err == nil {
			fmt.Fprintln(os.Stderr, "perfbench: stacks written to", path)
		}
	}
	os.Exit(3)
}

// joinWithin waits for done to close, giving up after d.
func joinWithin(done <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// perLayerMetric names one --trace 1 metric.
type perLayerMetric struct{ name, unit string }

// perLayer is the --trace 1 metric set, in report order; it matches
// BENCHMARK.json's per_layer list.
var perLayer = []perLayerMetric{
	{"baseline.chan_ns_per_op", "ns"},
	{"core.queue_ns_per_op", "ns"},
	{"core.queue_alloc_bytes", "B"},
	{"core.stack_ns_per_op", "ns"},
	{"core.stack_alloc_bytes", "B"},
	{"segq.ns_per_op", "ns"},
	{"synchq.ns_per_op", "ns"},
	{"metrics.ns_per_op", "ns"},
	{"shard.ns_per_op", "ns"},
	{"shard.ns_per_op_1p", "ns"},
	{"exchanger.ns_per_op", "ns"},
	{"park.roundtrip_ns", "ns"},
	{"synchq.put_p50_ns", "ns"},
	{"synchq.put_p99_ns", "ns"},
	{"synchq.take_p50_ns", "ns"},
	{"synchq.take_p99_ns", "ns"},
	{"spin.spins_per_op", "count"},
	{"park.parks_per_op", "count"},
	{"park.unparks_per_op", "count"},
	{"park.wait_p50_ns", "ns"},
	{"core.cas_fail_per_op", "count"},
	{"core.fulfil_ratio", "ratio"},
	{"core.timeouts_per_op", "count"},
	{"core.clean_per_op", "count"},
	{"shard.width_end", "count"},
	{"shard.width_changes", "count"},
	{"shard.steals_per_op", "count"},
	{"shard.probe_miss_ratio", "ratio"},
	{"shard.stranded_ops", "count"},
	{"pool.submit_p50_ns", "ns"},
	{"pool.submit_p99_ns", "ns"},
	{"pool.queue_wait_p50_ns", "ns"},
	{"pool.queue_wait_p99_ns", "ns"},
	{"pool.exec_p50_ns", "ns"},
	{"pool.idle_handoff_ratio", "ratio"},
	{"pool.spawned_per_1k", "count"},
	{"loadgen.late_p99_us", "us"},
	{"synchq.match_ratio", "ratio"},
	{"park.early_returns", "count"},
	{"latency_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
}

// absentFor marks every per-layer metric with one of prefixes as absent
// on a workload, with the reason.
func absentFor(why string, prefixes ...string) map[string]string {
	out := map[string]string{}
	for _, m := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(m.name, p) {
				out[m.name] = why
			}
		}
	}
	return out
}

// describe records the workload's shape: loop type, goroutines, rate,
// deadline and patience.
func describe(cfg config) string {
	switch cfg.workload {
	case "pipeline":
		return fmt.Sprintf("loop=closed producers=%d consumers=%d queue=New(Fair(true),AutoShard(),Instrument(m)) ops=PutContext/TakeContext",
			cfg.procs, cfg.procs)
	case "rpc":
		return fmt.Sprintf("loop=open generators=1 rate=%d/s deadline=%v work=%d-mix-rounds pool=cached queue=New[pool.Task]()",
			rpcRate, rpcDeadline, rpcWorkRounds)
	default:
		return fmt.Sprintf("loop=closed producers=%d consumers=%d patience=%v think=[0,%v) queue=New(Fair(true)) ops=OfferTimeout/PollTimeout",
			cfg.procs, cfg.procs, timeoutsPatience, timeoutsMaxThink)
	}
}
