package scenario

import (
	"strings"
	"testing"
	"time"

	"scl"
	"scl/sim"
)

// curatedPrefix names the curated oracle scripts in testdata/: small
// hand-written scenarios that each pin one lock behaviour (handoff, ban,
// cancel, close, RW phases). The rest of the corpus is workload-shaped.
const curatedPrefix = "oracle-"

// TestScenarioOracleCorpus is the differential oracle over the
// workload scenarios in testdata/: each runs on the simulator and on
// the real library under the deterministic checker, and the two
// executions must agree on grant order, timeout and ban counts, and
// hold shares — modulo each scenario's documented allow list (and,
// when grant-order is allowed, per-entity grant counts must still
// match). The scenario's declared assertions must hold on both sides.
// The curated oracle-*.scn scripts get the same comparison in
// TestScenarioOracleCases and TestScenarioOracleRWCases.
func TestScenarioOracleCorpus(t *testing.T) {
	n := runOracle(t, func(s *Scenario) bool { return !strings.HasPrefix(s.Name, curatedPrefix) })
	if n < 6 {
		t.Fatalf("starter corpus shrank to %d scenarios (want >= 6)", n)
	}
}

// TestScenarioOracleCases runs the curated mutex scripts through the
// differential oracle.
func TestScenarioOracleCases(t *testing.T) {
	n := runOracle(t, func(s *Scenario) bool {
		return strings.HasPrefix(s.Name, curatedPrefix) && s.Lock == LockMutex
	})
	if n < 5 {
		t.Fatalf("curated mutex scripts shrank to %d (want >= 5)", n)
	}
}

// TestScenarioOracleRWCases runs the curated reader/writer scripts
// through the differential oracle.
func TestScenarioOracleRWCases(t *testing.T) {
	n := runOracle(t, func(s *Scenario) bool {
		return strings.HasPrefix(s.Name, curatedPrefix) && s.Lock == LockRW
	})
	if n < 2 {
		t.Fatalf("curated RW scripts shrank to %d (want >= 2)", n)
	}
}

// runOracle compares sim and check on every corpus scenario that keep
// selects, one subtest each, and returns how many it ran. A scenario
// whose simulation grants nothing fails: the comparison would be
// vacuous.
func runOracle(t *testing.T, keep func(*Scenario) bool) int {
	t.Helper()
	corpus, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range corpus {
		if !keep(s) {
			continue
		}
		n++
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			allowed, undocumented, err := Diff(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range undocumented {
				t.Errorf("undocumented divergence (replay: sclscenario -mode replay -scenario %s -seed %d): %v", s.Name, c.Seed, d)
			}
			for _, d := range allowed {
				t.Logf("documented divergence: %v", d)
			}
			simR := RunSim(c)
			if len(simR.Grants) == 0 {
				t.Fatalf("sim grants nothing; the comparison would be vacuous")
			}
			for _, aerr := range EvalAsserts(s, simR, SubstrateSim) {
				t.Errorf("sim: %v", aerr)
			}
			checkR, err := RunCheck(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, aerr := range EvalAsserts(s, checkR, SubstrateCheck) {
				t.Errorf("check: %v", aerr)
			}
			checkComplete(t, c, checkR)
		})
	}
	return n
}

// checkComplete requires every scripted acquire to have been granted
// or (for a cancellable acquire) timed out: nothing silently vanished.
func checkComplete(t *testing.T, c *Compiled, r sim.ScriptResult) {
	t.Helper()
	total := 0
	for _, n := range r.Timeouts {
		total += n
	}
	if got := len(r.Grants) + total; got != c.TotalAcquires() {
		t.Errorf("grants %d + timeouts %d != scripted acquires %d", len(r.Grants), total, c.TotalAcquires())
	}
}

// TestScenarioWall runs the whole corpus on the wall-clock substrate:
// real goroutines, real sleeps, the real lock. Only structural
// assertions gate here (grant floors, completion within the
// watchdog); the deterministic substrates own the timing-sensitive
// ones.
func TestScenarioWall(t *testing.T) {
	if testing.Short() {
		t.Skip("wall substrate sleeps real time")
	}
	corpus, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunWall(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, aerr := range EvalAsserts(s, r, SubstrateWall) {
				t.Errorf("wall: %v", aerr)
			}
			checkComplete(t, c, r)
		})
	}
}

// TestEvalAsserts exercises the assertion evaluator's pass, fail, and
// wall-skip behaviour on a hand-built result.
func TestEvalAsserts(t *testing.T) {
	s := &Scenario{
		Name: "x",
		Asserts: []Assert{
			{Kind: AssertJainHold, Value: 0.99},
			{Kind: AssertMaxShare, Value: 0.5},
			{Kind: AssertGrants, N: 5},
			{Kind: AssertTimeouts, N: 0},
			{Kind: AssertNoLostGrant},
		},
	}
	// Skewed result: entity 0 hogged, one timeout, 4 grants.
	r := sim.ScriptResult{
		Grants:   []int{0, 0, 0, 1},
		Timeouts: []int{0, 1},
		Bans:     []int{0, 0},
		Hold:     []time.Duration{9 * time.Millisecond, 1 * time.Millisecond},
	}
	errs := EvalAsserts(s, r, SubstrateSim)
	if len(errs) != 4 { // jain, max-share, grants, timeouts all fail
		t.Fatalf("want 4 failures on sim, got %d: %v", len(errs), errs)
	}
	for _, want := range []string{"jain-hold", "max-share", "grants", "timeouts"} {
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no failure mentions %s: %v", want, errs)
		}
	}
	// On wall, only the structural grants floor applies.
	errs = EvalAsserts(s, r, SubstrateWall)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "grants") {
		t.Fatalf("want exactly the grants failure on wall, got %v", errs)
	}
	// A balanced result passes everything.
	ok := sim.ScriptResult{
		Grants:   []int{0, 1, 0, 1, 0, 1},
		Timeouts: []int{0, 0},
		Bans:     []int{0, 0},
		Hold:     []time.Duration{5 * time.Millisecond, 5 * time.Millisecond},
	}
	if errs := EvalAsserts(s, ok, SubstrateCheck); len(errs) != 0 {
		t.Fatalf("balanced result should pass: %v", errs)
	}
}

// TestSummaryShape sanity-checks the summary table against a tiny
// scenario without pinning bytes (the goldens do that).
func TestSummaryShape(t *testing.T) {
	s, err := Parse(minimal)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	out := Summary(c, SubstrateSim, RunSim(c))
	for _, want := range []string{"scenario t lock mutex", "substrate sim", "g0", "total grants 1", "order g0"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestManagerOptionsKeepSimSlice: a keyed scenario with no `slice` line
// runs its keys on the sim's 2ms u-SCL slice, so the Manager-backed
// substrates (wall, explorer) build u-SCL keys too rather than the
// Manager's zero-slice default of k-SCL keys; a declared slice passes
// through unchanged. The scenario then runs on the wall substrate.
func TestManagerOptionsKeepSimSlice(t *testing.T) {
	const src = `scenario noslice {
	lock mutex
	keys 2
	seed 3
	horizon 50ms
	group hot 2 {
		arrival closed
		ops 3
		cs fixed 200us
		think fixed 300us
	}
	group cold 1 {
		key 1
		arrival closed
		ops 2
		cs fixed 100us
		think fixed 1ms
	}
	assert no-lost-grant
}`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.Slice != 0 {
		t.Fatalf("parsed slice %v, want 0 (no slice line)", s.Slice)
	}
	if got := managerOptions(s).Lock.Slice; got != scl.DefaultSlice {
		t.Fatalf("Manager key slice %v for a scenario with no slice line, want %v", got, scl.DefaultSlice)
	}
	declared := *s
	declared.Slice = 500 * time.Microsecond
	if got := managerOptions(&declared).Lock.Slice; got != declared.Slice {
		t.Fatalf("Manager key slice %v, want the declared %v", got, declared.Slice)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWall(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Grants); got != c.TotalAcquires() {
		t.Fatalf("wall: %d grants of %d scripted acquires", got, c.TotalAcquires())
	}
}
