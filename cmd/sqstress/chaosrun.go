package main

// The chaos matrix runner: for every requested core × option
// configuration it declares the applicable properties in a props.Suite,
// drives the scenario library against one shared fault injector, and
// folds the suites into a machine-readable verdict report. A failing
// configuration carries a one-line copy-pasteable replay command that
// re-runs exactly that cell of the matrix with the same seed.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"synchq/internal/fault"
	"synchq/internal/metrics"
	"synchq/internal/props"
)

// chaosOptions parameterizes one matrix run. Zero-valued fields fall back
// to the full matrix / library.
type chaosOptions struct {
	seed        uint64
	cores       []string // core keys; empty = all
	opts        []string // option keys; empty = all
	scenarios   []string // scenario names; empty = whole library
	scenarioDur time.Duration
	producers   int
	consumers   int
	jsonPath    string // write the JSON report here ("" = don't, "-" = stdout)
	out         io.Writer
	// sabotage registers a deliberately broken always-checker in every
	// suite: the self-test hook proving a violated property produces a
	// failing verdict row and a nonzero exit, end to end.
	sabotage bool
}

// sabotageProp is the broken checker's property name.
const sabotageProp = "sabotage:always-false"

// replayCommand renders the copy-pasteable command that reproduces one
// configuration cell of the matrix.
func (o chaosOptions) replayCommand(coreKey, optKey string) string {
	scen := "all"
	if len(o.scenarios) > 0 {
		scen = strings.Join(o.scenarios, ",")
	}
	return fmt.Sprintf(
		"go run ./cmd/sqstress -chaos -seed %d -cores %s -opts %s -scenarios %s -scenario-duration %s -producers %d -consumers %d -procs %d",
		o.seed, coreKey, optKey, scen, o.scenarioDur, o.producers, o.consumers, runtime.GOMAXPROCS(0))
}

// configSeed derives a per-configuration injector seed so every cell sees
// a distinct but fully replayable injected-event stream (FNV-1a over the
// cell label, folded into the run seed).
func configSeed(seed uint64, coreKey, optKey string) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range []byte(coreKey + "/" + optKey) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return seed ^ h
}

// harnessInjector builds the matrix's fault injector: the chaos-mode
// rates with the CAS-failure and preemption rates raised, so low-traffic
// sites still collect injected hits within a short scenario. The clean
// paths run only when a queued waiter gives up behind another; the
// stack's help path runs only when an operation lands on a fulfilling
// node mid-pairing, a window that the injected fulfill-pauses themselves
// hold open.
func harnessInjector(seed uint64) *fault.Injector {
	return fault.New(fault.Config{
		Seed:             seed,
		FailCASRate:      0.06,
		PreemptRate:      0.02,
		SpuriousWakeRate: 0.01,
		TimerSkewRate:    0.05,
	})
}

// registerProperties declares the configuration's property set on its
// suite: the always-invariants the structure contracts for, the
// sometimes-events its workload must provoke, and one reachable property
// per fault site in the structure's classes.
func registerProperties(rc *runCtx) {
	st := func() *scenarioState { return rc.state.Load() }

	rc.suite.Always(propConservation, func(final bool) error {
		if s := st(); s != nil {
			return s.conservationCheck(final)
		}
		return nil
	})
	if rc.core.syncPair {
		rc.suite.Always(propSynchrony, func(final bool) error {
			if s := st(); s != nil {
				return s.synchronyCheck(final)
			}
			return nil
		})
	}
	if rc.core.fifo {
		rc.suite.Always(propFIFO, func(final bool) error {
			if s := st(); s != nil {
				return s.fifoCheck(final)
			}
			return nil
		})
	}
	// Violations of no-stranded-waiter are detected by the scenario
	// driver's bounded waits, which Fail the property directly.
	rc.suite.Always(propNoStranded, nil)
	if rc.core.executor {
		// The executor's conservation ledger: at every quiesced rest
		// point, accepted == completed + shed + returned (+ nothing in
		// flight). Checked from the structure's own counters, so it
		// holds even for tasks the harness history cannot see (chaff,
		// wedges, drain reclaim).
		rc.suite.Always(propExecLedger, func(final bool) error {
			s := st()
			if s == nil || !final || !s.finalized.Load() {
				return nil
			}
			l, ok := s.adapter.(interface{ LedgerGap() int64 })
			if !ok {
				return nil
			}
			if gap := l.LedgerGap(); gap != 0 {
				return fmt.Errorf("%s: executor ledger gap %d (accepted != completed+shed+returned+pending+active)",
					s.name, gap)
			}
			return nil
		})
		rc.suite.Sometimes(propDrainForce)
	}

	// What must hold once faults stop (runCalm's phases).
	rc.suite.Always(propTimedResolved, nil)
	rc.suite.Unreachable(propEarlyTimeout)

	rc.suite.Sometimes(propTimeout)
	rc.suite.Sometimes(propCloseReject)
	if rc.core.cancelable {
		rc.suite.Sometimes(propCancelRace)
	}
	if rc.core.batch {
		rc.suite.Sometimes(propBatchPartial)
	}
	for _, prop := range rc.core.sometimesCounters {
		rc.suite.Sometimes(prop)
	}

	for _, site := range fault.SitesOf(rc.core.classes...) {
		s := site
		rc.suite.Reachable("reach:"+s.String(), func() int64 { return rc.inj.Count(s) })
	}
}

// resolveMatrix expands the requested core/opt/scenario keys, failing fast
// on unknown names.
func resolveMatrix(o chaosOptions) (cores []coreDef, opts []optDef, scenarios []scenarioDef, err error) {
	if len(o.cores) == 0 {
		cores = coreDefs
	} else {
		for _, k := range o.cores {
			c, ok := coreByKey(k)
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown core %q (have: %s)", k, joinKeys())
			}
			cores = append(cores, c)
		}
	}
	if len(o.opts) == 0 {
		opts = optDefs
	} else {
		for _, k := range o.opts {
			op, ok := optByKey(k)
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown option %q", k)
			}
			opts = append(opts, op)
		}
	}
	if len(o.scenarios) == 0 {
		scenarios = scenarioLib
	} else {
		for _, name := range o.scenarios {
			s, ok := scenarioByName(name)
			if !ok {
				return nil, nil, nil, fmt.Errorf("unknown scenario %q", name)
			}
			scenarios = append(scenarios, s)
		}
	}
	return cores, opts, scenarios, nil
}

func joinKeys() string {
	keys := make([]string, len(coreDefs))
	for i, c := range coreDefs {
		keys[i] = c.key
	}
	return strings.Join(keys, ",")
}

// runChaosMatrix drives the scenario library over every core × option
// cell and returns the verdict report. ok is false when any property of
// any cell failed.
func runChaosMatrix(o chaosOptions) (*props.Report, bool) {
	if o.out == nil {
		o.out = os.Stdout
	}
	cores, opts, scenarios, err := resolveMatrix(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sqstress: %v\n", err)
		return nil, false
	}

	scenarioNames := make([]string, len(scenarios))
	for i, s := range scenarios {
		scenarioNames[i] = s.name
	}
	report := props.NewReport(o.seed, runtime.GOMAXPROCS(0), scenarioNames)

	for _, c := range cores {
		for _, op := range opts {
			label := c.key + "/" + op.key
			rc := &runCtx{
				core:      c,
				opt:       op,
				suite:     props.NewSuite(label),
				h:         metrics.New(),
				inj:       harnessInjector(configSeed(o.seed, c.key, op.key)),
				seed:      configSeed(o.seed, c.key, op.key),
				producers: o.producers,
				consumers: o.consumers,
			}
			rc.suite.SetReplay(o.replayCommand(c.key, op.key))
			registerProperties(rc)
			if o.sabotage {
				rc.suite.Always(sabotageProp, func(final bool) error {
					return fmt.Errorf("deliberately broken checker (self-test hook)")
				})
			}

			for _, sc := range scenarios {
				if sc.needsCancel && !c.cancelable {
					continue
				}
				if sc.execOnly && !c.executor {
					continue
				}
				if sc.batchOnly && !c.batch {
					continue
				}
				fmt.Fprintf(o.out, "chaos %-20s %s\n", label, sc.name)
				sc.run(rc, o.scenarioDur)
				rc.runCalm(sc.name, o.scenarioDur/4)
			}
			report.Add(rc.suite)
		}
	}

	fmt.Fprintln(o.out)
	fmt.Fprint(o.out, report.Render())
	if !report.OK {
		fmt.Fprintf(o.out, "\nFAIL: re-run a failing cell with its replay line above (same seed, same injected-event stream)\n")
	}
	if o.jsonPath != "" {
		b := append(report.JSON(), '\n')
		if o.jsonPath == "-" {
			o.out.Write(b)
		} else if err := os.WriteFile(o.jsonPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sqstress: writing %s: %v\n", o.jsonPath, err)
			return report, false
		}
	}
	return report, report.OK
}
