// Package props is a property-declaration framework for the chaos
// harness, in the Antithesis workload idiom: instead of invariants buried
// inside ad-hoc test bodies, a run declares its correctness claims up
// front as named properties, drives an arbitrary workload against them,
// and emits a machine-readable verdict table at exit. A silent regression
// then has nowhere to hide — a property that stops being exercised flips
// its row to FAIL just as loudly as one that is violated.
//
// Four kinds of property cover the shapes a hand-off fabric needs:
//
//   - Always — an invariant that must hold at every check point and at
//     quiesce (conservation of items, synchrony of pairings, per-producer
//     FIFO on fair cores, no stranded waiter after Close). Its checker
//     closure is invoked continuously during the run (final=false) and
//     once after the workload has quiesced (final=true); any error fails
//     the property. Evidence counts successful checks.
//
//   - Sometimes — an event that must be observed at least once per run
//     (elimination fires, a cross-shard steal completes, a cancel races a
//     fulfill). A sometimes-property that never fires fails: the workload
//     stopped reaching the code it claims to test. Evidence counts
//     observations.
//
//   - Reachable — a registered fault-injection site that must actually be
//     hit. Its counter closure is sampled at verdict time; zero means the
//     chaos schedule no longer penetrates that site, which fails the run.
//
//   - Unreachable — an event that must never happen (a timed operation
//     expiring before its deadline once faults stop). Reaching it is
//     reported with Fail and fails the property.
//
// Properties live in a Suite (one per structure-under-test
// configuration); suites aggregate into a Report, which renders the
// verdict table as text or JSON. All methods are safe for concurrent use
// by workload goroutines.
package props

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a property.
type Kind int

const (
	// Always properties must hold at every check and at quiesce.
	Always Kind = iota
	// Sometimes properties must be observed at least once per run.
	Sometimes
	// Reachable properties are fault sites that must actually be hit.
	Reachable
	// Unreachable properties are events that must never happen.
	Unreachable
)

// String returns the kind's stable lower-case name (used in the verdict
// table and its JSON schema).
func (k Kind) String() string {
	switch k {
	case Always:
		return "always"
	case Sometimes:
		return "sometimes"
	case Reachable:
		return "reachable"
	case Unreachable:
		return "unreachable"
	default:
		return fmt.Sprintf("props.Kind(%d)", int(k))
	}
}

// maxDetails bounds the failure details retained per property; later
// failures only bump the counter so a hot violation cannot balloon memory.
const maxDetails = 6

// Property is one named correctness claim. Create properties through a
// Suite; the zero value is not usable.
type Property struct {
	name  string
	kind  Kind
	check func(final bool) error // Always only; may be nil
	count func() int64           // Reachable only

	evidence atomic.Int64
	failures atomic.Int64
	mu       sync.Mutex
	details  []string
}

// Name returns the property's stable name.
func (p *Property) Name() string { return p.name }

// Kind returns the property's kind.
func (p *Property) Kind() Kind { return p.kind }

// Observe records one piece of evidence (a sometimes-event firing, an
// always-check passing).
func (p *Property) Observe() { p.evidence.Add(1) }

// AddEvidence records n pieces of evidence at once (e.g. a metrics-counter
// delta). Non-positive n is a no-op.
func (p *Property) AddEvidence(n int64) {
	if n > 0 {
		p.evidence.Add(n)
	}
}

// Evidence returns the evidence count so far.
func (p *Property) Evidence() int64 {
	if p.kind == Reachable && p.count != nil {
		return p.count()
	}
	return p.evidence.Load()
}

// Fail records a violation with a formatted detail line. The first
// maxDetails details are retained; further failures only count.
func (p *Property) Fail(format string, args ...any) {
	p.failures.Add(1)
	p.mu.Lock()
	if len(p.details) < maxDetails {
		p.details = append(p.details, fmt.Sprintf(format, args...))
	}
	p.mu.Unlock()
}

// Failed reports whether any violation has been recorded.
func (p *Property) Failed() bool { return p.failures.Load() > 0 }

// pass resolves the property's verdict from its kind.
func (p *Property) pass() bool {
	switch p.kind {
	case Always, Unreachable:
		return p.failures.Load() == 0
	default: // Sometimes, Reachable
		return p.Evidence() > 0
	}
}

// detail renders the verdict-row detail string.
func (p *Property) detail() string {
	if p.pass() {
		return ""
	}
	switch p.kind {
	case Sometimes:
		return "never fired"
	case Reachable:
		return "site never reached"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	d := strings.Join(p.details, "; ")
	if extra := p.failures.Load() - int64(len(p.details)); extra > 0 {
		d += fmt.Sprintf(" (+%d more)", extra)
	}
	return d
}

// Suite is an ordered registry of properties for one configuration of the
// structure under test. Create one with NewSuite.
type Suite struct {
	label  string
	replay string

	mu      sync.Mutex
	ordered []*Property
	byName  map[string]*Property
}

// NewSuite returns an empty suite labeled for the verdict table (e.g.
// "queue/default").
func NewSuite(label string) *Suite {
	return &Suite{label: label, byName: make(map[string]*Property)}
}

// Label returns the suite's configuration label.
func (s *Suite) Label() string { return s.label }

// SetReplay attaches the copy-pasteable command that reproduces this
// suite's run; it is carried into the verdict report.
func (s *Suite) SetReplay(cmd string) { s.replay = cmd }

// Replay returns the suite's replay command.
func (s *Suite) Replay() string { return s.replay }

// add registers p, panicking on duplicate names (a harness wiring bug).
func (s *Suite) add(p *Property) *Property {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[p.name]; dup {
		panic("props: duplicate property " + p.name)
	}
	s.byName[p.name] = p
	s.ordered = append(s.ordered, p)
	return p
}

// Always declares an invariant checked continuously and at quiesce. The
// checker receives final=false on continuous checks and final=true once
// the workload has quiesced; a nil error is a pass (evidence++), a non-nil
// error fails the property. A nil checker declares a property whose
// violations are reported directly via Fail (e.g. a stranded-waiter watch
// owned by the scenario driver).
func (s *Suite) Always(name string, check func(final bool) error) *Property {
	return s.add(&Property{name: name, kind: Always, check: check})
}

// Sometimes declares an event that must be observed at least once per run
// via Observe/AddEvidence.
func (s *Suite) Sometimes(name string) *Property {
	return s.add(&Property{name: name, kind: Sometimes})
}

// Reachable declares a fault site (or any other coverage point) that must
// be hit: count is sampled at verdict time and must be positive. The
// closure typically wraps fault.Injector.Count for one site.
func (s *Suite) Reachable(name string, count func() int64) *Property {
	return s.add(&Property{name: name, kind: Reachable, count: count})
}

// Unreachable declares an event that must never happen; the workload
// reports each occurrence via Fail, with its specifics.
func (s *Suite) Unreachable(name string) *Property {
	return s.add(&Property{name: name, kind: Unreachable})
}

// Lookup returns the named property, or nil.
func (s *Suite) Lookup(name string) *Property {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byName[name]
}

// Observe records evidence for the named property. Unknown names panic:
// observing an undeclared property is a harness wiring bug, and silently
// dropping the evidence would hide it.
func (s *Suite) Observe(name string) {
	p := s.Lookup(name)
	if p == nil {
		panic("props: observe of undeclared property " + name)
	}
	p.Observe()
}

// CheckAlways runs every always-checker; passes count as evidence and
// failures are recorded with the checker's error. Scenario drivers call it
// periodically with final=false and once per scenario, after quiesce and
// drain, with final=true.
func (s *Suite) CheckAlways(final bool) {
	s.mu.Lock()
	props := append([]*Property(nil), s.ordered...)
	s.mu.Unlock()
	for _, p := range props {
		if p.kind != Always || p.check == nil {
			continue
		}
		if err := p.check(final); err != nil {
			p.Fail("%v", err)
		} else {
			p.Observe()
		}
	}
}

// Ok reports whether every property in the suite currently passes.
func (s *Suite) Ok() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.ordered {
		if !p.pass() {
			return false
		}
	}
	return true
}

// Verdict is one row of the verdict table.
type Verdict struct {
	// Property is the stable property name.
	Property string `json:"property"`
	// Kind is "always", "sometimes", "reachable", or "unreachable".
	Kind string `json:"kind"`
	// Verdict is "pass" or "fail".
	Verdict string `json:"verdict"`
	// Evidence counts supporting events: checks passed (always),
	// observations (sometimes), or injected hits (reachable).
	Evidence int64 `json:"evidence"`
	// Detail carries failure specifics; empty on a pass.
	Detail string `json:"detail,omitempty"`
}

// Pass reports whether the row passed.
func (v Verdict) Pass() bool { return v.Verdict == "pass" }

// Verdicts resolves every property into its verdict row, in declaration
// order (always, then sometimes, then reachable, then unreachable,
// preserving registration order within each kind).
func (s *Suite) Verdicts() []Verdict {
	s.mu.Lock()
	props := append([]*Property(nil), s.ordered...)
	s.mu.Unlock()
	sort.SliceStable(props, func(i, j int) bool { return props[i].kind < props[j].kind })
	out := make([]Verdict, 0, len(props))
	for _, p := range props {
		v := Verdict{
			Property: p.name,
			Kind:     p.kind.String(),
			Verdict:  "fail",
			Evidence: p.Evidence(),
			Detail:   p.detail(),
		}
		if p.pass() {
			v.Verdict = "pass"
		}
		out = append(out, v)
	}
	return out
}

// ConfigReport is the verdict table for one suite (one configuration of
// the structure under test).
type ConfigReport struct {
	// Config is the suite label, e.g. "queue/default".
	Config string `json:"config"`
	// Replay is the copy-pasteable command reproducing this run.
	Replay string `json:"replay,omitempty"`
	// OK is true when every row passed.
	OK bool `json:"ok"`
	// Verdicts are the property rows.
	Verdicts []Verdict `json:"verdicts"`
}

// Report is the machine-readable verdict table over every configuration of
// a chaos run.
type Report struct {
	// Seed is the fault-injection / schedule seed of the run; re-running
	// with the same seed replays the same injected-event stream.
	Seed uint64 `json:"seed"`
	// Procs is the GOMAXPROCS the run used.
	Procs int `json:"procs"`
	// Scenarios lists the scenario library entries that were driven.
	Scenarios []string `json:"scenarios"`
	// OK is true when every config's every row passed.
	OK bool `json:"ok"`
	// Configs holds one verdict table per configuration.
	Configs []ConfigReport `json:"configs"`
}

// NewReport returns an empty report for the given seed and scenario set.
func NewReport(seed uint64, procs int, scenarios []string) *Report {
	return &Report{Seed: seed, Procs: procs, Scenarios: scenarios, OK: true}
}

// Add resolves s's verdicts into the report.
func (r *Report) Add(s *Suite) {
	cr := ConfigReport{Config: s.Label(), Replay: s.Replay(), OK: true, Verdicts: s.Verdicts()}
	for _, v := range cr.Verdicts {
		if !v.Pass() {
			cr.OK = false
			r.OK = false
		}
	}
	r.Configs = append(r.Configs, cr)
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil { // impossible: the report is plain data
		panic(err)
	}
	return b
}

// Render returns the human-readable verdict table: one block per config,
// one row per property, with the replay command on every failing block.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "property verdicts (seed=%d procs=%d scenarios=%s)\n",
		r.Seed, r.Procs, strings.Join(r.Scenarios, ","))
	for _, cr := range r.Configs {
		status := "PASS"
		if !cr.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "\n=== %-24s %s\n", cr.Config, status)
		w := 8
		for _, v := range cr.Verdicts {
			if len(v.Property) > w {
				w = len(v.Property)
			}
		}
		for _, v := range cr.Verdicts {
			fmt.Fprintf(&b, "  %-11s %-*s %-4s %10d", v.Kind, w, v.Property, v.Verdict, v.Evidence)
			if v.Detail != "" {
				fmt.Fprintf(&b, "  %s", v.Detail)
			}
			b.WriteByte('\n')
		}
		if !cr.OK && cr.Replay != "" {
			fmt.Fprintf(&b, "  replay: %s\n", cr.Replay)
		}
	}
	return b.String()
}
