package props

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func verdictFor(t *testing.T, vs []Verdict, name string) Verdict {
	t.Helper()
	for _, v := range vs {
		if v.Property == name {
			return v
		}
	}
	t.Fatalf("no verdict row for %q in %+v", name, vs)
	return Verdict{}
}

func TestAlwaysPassAccumulatesEvidence(t *testing.T) {
	s := NewSuite("stub/default")
	s.Always("conservation", func(final bool) error { return nil })
	for i := 0; i < 3; i++ {
		s.CheckAlways(false)
	}
	s.CheckAlways(true)
	v := verdictFor(t, s.Verdicts(), "conservation")
	if !v.Pass() || v.Evidence != 4 || v.Kind != "always" {
		t.Fatalf("want passing always with evidence 4, got %+v", v)
	}
	if !s.Ok() {
		t.Fatal("suite should pass")
	}
}

// TestBrokenAlwaysCheckerFails is the deliberately-broken-checker stub: a
// checker that reports a violation must produce a failing row whose detail
// carries the error, and must fail the suite (the harness maps that to a
// nonzero exit).
func TestBrokenAlwaysCheckerFails(t *testing.T) {
	s := NewSuite("stub/default")
	s.Always("conservation", func(final bool) error {
		if final {
			return errors.New("offered=7 delivered=6")
		}
		return nil
	})
	s.CheckAlways(false)
	s.CheckAlways(true)
	v := verdictFor(t, s.Verdicts(), "conservation")
	if v.Pass() {
		t.Fatalf("broken checker must fail, got %+v", v)
	}
	if !strings.Contains(v.Detail, "offered=7 delivered=6") {
		t.Fatalf("detail must carry the checker error, got %q", v.Detail)
	}
	if s.Ok() {
		t.Fatal("suite with a failing always-property must not be Ok")
	}
}

// TestNeverFiredSometimesFails: a sometimes-property that is declared but
// never observed must fail the run with a "never fired" row — the workload
// stopped reaching the code it claims to exercise.
func TestNeverFiredSometimesFails(t *testing.T) {
	s := NewSuite("stub/default")
	s.Sometimes("elimination-fires")
	fired := s.Sometimes("cancel-races-fulfill")
	fired.Observe()
	fired.AddEvidence(2)

	vs := s.Verdicts()
	dead := verdictFor(t, vs, "elimination-fires")
	if dead.Pass() || dead.Detail != "never fired" || dead.Evidence != 0 {
		t.Fatalf("never-fired sometimes must fail with 'never fired', got %+v", dead)
	}
	live := verdictFor(t, vs, "cancel-races-fulfill")
	if !live.Pass() || live.Evidence != 3 {
		t.Fatalf("observed sometimes must pass with evidence 3, got %+v", live)
	}
	if s.Ok() {
		t.Fatal("suite with a never-fired sometimes must not be Ok")
	}
}

// TestNeverReachedSiteFails: a registered reachable site whose counter
// stays zero must fail with a "site never reached" row, while a hit site
// reports its count as evidence.
func TestNeverReachedSiteFails(t *testing.T) {
	s := NewSuite("stub/default")
	var hits int64 = 17
	s.Reachable("reach:q-enqueue-cas", func() int64 { return hits })
	s.Reachable("reach:q-clean-cas", func() int64 { return 0 })

	vs := s.Verdicts()
	hit := verdictFor(t, vs, "reach:q-enqueue-cas")
	if !hit.Pass() || hit.Evidence != 17 {
		t.Fatalf("hit site must pass with its count as evidence, got %+v", hit)
	}
	dead := verdictFor(t, vs, "reach:q-clean-cas")
	if dead.Pass() || dead.Detail != "site never reached" {
		t.Fatalf("unreached site must fail with 'site never reached', got %+v", dead)
	}
	if s.Ok() {
		t.Fatal("suite with an unreached site must not be Ok")
	}
}

// TestReachedUnreachableFails: an unreachable property passes while
// nothing reaches it and fails, carrying the reported specifics, once the
// workload reports an occurrence.
func TestReachedUnreachableFails(t *testing.T) {
	s := NewSuite("stub/default")
	p := s.Unreachable("early-timeout")
	v := verdictFor(t, s.Verdicts(), "early-timeout")
	if !v.Pass() || v.Kind != "unreachable" {
		t.Fatalf("unreached unreachable property must pass, got %+v", v)
	}
	p.Fail("expired after %s", "3µs")
	v = verdictFor(t, s.Verdicts(), "early-timeout")
	if v.Pass() || !strings.Contains(v.Detail, "expired after 3µs") {
		t.Fatalf("reached unreachable property must fail with its detail, got %+v", v)
	}
	if s.Ok() {
		t.Fatal("suite with a reached unreachable property must not be Ok")
	}
}

func TestFailDetailBounded(t *testing.T) {
	s := NewSuite("stub/default")
	p := s.Always("synchrony", nil)
	for i := 0; i < 50; i++ {
		p.Fail("violation %d", i)
	}
	v := verdictFor(t, s.Verdicts(), "synchrony")
	if v.Pass() {
		t.Fatal("explicitly failed property must fail")
	}
	if !strings.Contains(v.Detail, "(+44 more)") {
		t.Fatalf("detail must summarize overflow, got %q", v.Detail)
	}
}

func TestVerdictOrderGroupsKinds(t *testing.T) {
	s := NewSuite("stub/default")
	s.Unreachable("never")
	s.Reachable("reach:x", func() int64 { return 1 })
	s.Sometimes("fires")
	s.Always("holds", func(bool) error { return nil })
	s.Observe("fires")
	vs := s.Verdicts()
	kinds := []string{vs[0].Kind, vs[1].Kind, vs[2].Kind, vs[3].Kind}
	want := []string{"always", "sometimes", "reachable", "unreachable"}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("verdicts must group always<sometimes<reachable<unreachable, got %v", kinds)
		}
	}
}

func TestDuplicateAndUndeclaredPanic(t *testing.T) {
	s := NewSuite("stub/default")
	s.Sometimes("x")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("duplicate registration must panic")
			}
		}()
		s.Always("x", nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("observing an undeclared property must panic")
			}
		}()
		s.Observe("undeclared")
	}()
}

func TestConcurrentObserveAndCheck(t *testing.T) {
	s := NewSuite("stub/default")
	s.Sometimes("event")
	s.Always("inv", func(final bool) error { return nil })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe("event")
				s.CheckAlways(false)
			}
		}()
	}
	wg.Wait()
	if got := s.Lookup("event").Evidence(); got != 8000 {
		t.Fatalf("want 8000 observations, got %d", got)
	}
	if got := s.Lookup("inv").Evidence(); got != 8000 {
		t.Fatalf("want 8000 passing checks, got %d", got)
	}
}

// TestReportSchema pins the machine-readable schema: the JSON a CI step
// parses must keep its field names and pass/fail encoding stable.
func TestReportSchema(t *testing.T) {
	good := NewSuite("queue/default")
	good.SetReplay("go run ./cmd/sqstress -chaos -seed 7 -cores queue")
	good.Always("conservation", func(bool) error { return nil })
	good.CheckAlways(true)

	bad := NewSuite("stack/nospin")
	bad.SetReplay("go run ./cmd/sqstress -chaos -seed 7 -cores stack -opts nospin")
	bad.Sometimes("elimination-fires") // never fired

	r := NewReport(7, 4, []string{"steady", "cancel-storm"})
	r.Add(good)
	r.Add(bad)
	if r.OK {
		t.Fatal("report with a failing config must not be OK")
	}

	var decoded struct {
		Seed      uint64   `json:"seed"`
		Procs     int      `json:"procs"`
		Scenarios []string `json:"scenarios"`
		OK        bool     `json:"ok"`
		Configs   []struct {
			Config   string `json:"config"`
			Replay   string `json:"replay"`
			OK       bool   `json:"ok"`
			Verdicts []struct {
				Property string `json:"property"`
				Kind     string `json:"kind"`
				Verdict  string `json:"verdict"`
				Evidence int64  `json:"evidence"`
				Detail   string `json:"detail"`
			} `json:"verdicts"`
		} `json:"configs"`
	}
	if err := json.Unmarshal(r.JSON(), &decoded); err != nil {
		t.Fatalf("report JSON must decode: %v", err)
	}
	if decoded.Seed != 7 || decoded.Procs != 4 || len(decoded.Configs) != 2 {
		t.Fatalf("schema mismatch: %+v", decoded)
	}
	if !decoded.Configs[0].OK || decoded.Configs[1].OK {
		t.Fatalf("per-config ok flags wrong: %+v", decoded.Configs)
	}
	row := decoded.Configs[1].Verdicts[0]
	if row.Property != "elimination-fires" || row.Kind != "sometimes" || row.Verdict != "fail" {
		t.Fatalf("failing row wrong: %+v", row)
	}

	text := r.Render()
	for _, want := range []string{"queue/default", "stack/nospin", "FAIL", "never fired", "replay: go run ./cmd/sqstress -chaos -seed 7 -cores stack"} {
		if !strings.Contains(text, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, text)
		}
	}
}
