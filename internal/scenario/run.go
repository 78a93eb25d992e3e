package scenario

import (
	"fmt"
	"strings"
	"time"

	"scl/internal/check"
	"scl/internal/metrics"
	"scl/sim"
)

// Substrate names accepted by Run and the sclscenario CLI.
const (
	// SubstrateSim is the discrete-event simulator.
	SubstrateSim = "sim"
	// SubstrateCheck is the real library under the deterministic
	// checker's virtual clock.
	SubstrateCheck = "check"
	// SubstrateWall is real goroutines on the real clock.
	SubstrateWall = "wall"
)

// Run executes the compiled scenario on the named substrate.
func Run(c *Compiled, substrate string) (sim.ScriptResult, error) {
	switch substrate {
	case SubstrateSim:
		return RunSim(c), nil
	case SubstrateCheck:
		return RunCheck(c)
	case SubstrateWall:
		return RunWall(c)
	}
	return sim.ScriptResult{}, fmt.Errorf("unknown substrate %q", substrate)
}

// RunSim executes the compiled scenario on the simulator. Multi-key
// scenarios run each key's script on its own simulated lock (keys of a
// table are independent locks) and merge the per-entity results.
func RunSim(c *Compiled) sim.ScriptResult {
	if c.RW != nil {
		return sim.RunRWScript(*c.RW)
	}
	if len(c.Keyed) > 0 {
		per := make([]sim.ScriptResult, len(c.Keyed))
		for k, s := range c.Keyed {
			per[k] = sim.RunScript(*s)
		}
		return mergeKeyed(c, per)
	}
	return sim.RunScript(*c.Mutex)
}

// RunCheck executes the compiled scenario against the real scl lock
// under the deterministic checker's virtual clock, on the forced
// schedule of a FirstChooser: with millisecond-separated timings at most
// one goroutine is enabled at a time, so the script's timings decide
// the schedule, as in the simulator. Multi-key scenarios run each key
// against its own real Mutex, mirroring the simulator's decomposition.
func RunCheck(c *Compiled) (sim.ScriptResult, error) {
	if len(c.Keyed) > 0 {
		per, err := runCheckKeyed(c)
		if err != nil {
			return sim.ScriptResult{}, err
		}
		return mergeKeyed(c, per), nil
	}
	return runCheck(specOf(c), nil)
}

// runCheckKeyed runs every key's script on the check substrate.
func runCheckKeyed(c *Compiled) ([]sim.ScriptResult, error) {
	per := make([]sim.ScriptResult, len(c.Keyed))
	for k, s := range c.Keyed {
		r, err := runCheck(mutexSpec(c.Scenario.Name, s), nil)
		if err != nil {
			return nil, fmt.Errorf("key %d: %w", k, err)
		}
		per[k] = r
	}
	return per, nil
}

// runCheck drives s once under a FirstChooser, on the lock newLock
// builds (nil: s's own). The invariants are checked at teardown only:
// the explorer's check after every op cost 15–20% of
// BenchmarkScenarioCheck on this substrate.
func runCheck(s Spec, newLock func() lock) (sim.ScriptResult, error) {
	if newLock == nil {
		newLock = s.lock
	}
	w, d := checkWorkload("", s, newLock, false)
	if r := check.RunWith(check.NewFirstChooser(), 0, w); r.Failure != nil {
		return d.res, fmt.Errorf("check run failed: %v", r.Failure)
	}
	return d.res, nil
}

// mergeKeyed folds per-key results (local entity indices) into one
// result over global entity indices. Grants concatenate in key order,
// so filtering the merged order by KeyOf recovers each key's exact
// grant sequence; per-entity counters and holds remap one-to-one
// because entities never span keys.
func mergeKeyed(c *Compiled, per []sim.ScriptResult) sim.ScriptResult {
	n := len(c.Names)
	out := sim.ScriptResult{
		Timeouts: make([]int, n),
		Bans:     make([]int, n),
		Hold:     make([]time.Duration, n),
	}
	for k, r := range per {
		for _, local := range r.Grants {
			out.Grants = append(out.Grants, c.GlobalOf[k][local])
		}
		for local, g := range c.GlobalOf[k] {
			out.Timeouts[g] = r.Timeouts[local]
			out.Bans[g] = r.Bans[local]
			out.Hold[g] = r.Hold[local]
		}
	}
	return out
}

// RunWall executes the compiled scenario with real goroutines on the
// real clock. The script's virtual durations become real sleeps, so a
// scenario's wall cost is roughly its horizon. Grant order and hold
// times are as the OS scheduler produced them — meaningful for
// throughput and structural assertions, not for byte-exact
// comparison. A multi-key scenario drives one real scl.Manager with a
// tenant per entity.
func RunWall(c *Compiled) (sim.ScriptResult, error) {
	rt := &wallRT{start: time.Now()}
	d := &driver{rt: rt}
	s := specOf(c)
	d.start(s, s.lock())
	if err := rt.wait(wallWatchdog(c.Scenario)); err != nil {
		return sim.ScriptResult{}, err
	}
	if err := d.teardown(); err != nil {
		return d.res, fmt.Errorf("wall teardown: %w", err)
	}
	return d.res, nil
}

// wallWatchdog bounds a wall run far beyond any plausible completion
// so a lost grant shows up as an error, not a hung test.
func wallWatchdog(s *Scenario) time.Duration {
	h := s.Horizon
	if h == 0 {
		h = time.Second
	}
	return 10*h + 5*time.Second
}

// JainHold computes Jain's fairness index over per-entity hold time.
func JainHold(r sim.ScriptResult) float64 {
	xs := make([]float64, len(r.Hold))
	for i, h := range r.Hold {
		xs[i] = float64(h)
	}
	return metrics.Jain(xs)
}

// EvalAsserts checks the scenario's declared assertions against one
// substrate's result. Timing-sensitive assertions (jain-hold,
// max-share, timeouts) are enforced on the deterministic substrates
// only: on wall the OS scheduler owns the timing, so they would
// flake. Completion (no-lost-grant) is enforced by the runners
// themselves; here it never fails.
func EvalAsserts(s *Scenario, r sim.ScriptResult, substrate string) []error {
	deterministic := substrate != SubstrateWall
	var errs []error
	for _, a := range s.Asserts {
		switch a.Kind {
		case AssertJainHold:
			if !deterministic {
				continue
			}
			if j := JainHold(r); j < a.Value {
				errs = append(errs, fmt.Errorf("assert jain-hold >= %g: got %.3f", a.Value, j))
			}
		case AssertMaxShare:
			if !deterministic {
				continue
			}
			for e := range r.Hold {
				if sh := r.HoldShare(e); sh > a.Value {
					errs = append(errs, fmt.Errorf("assert max-share <= %g: entity %d holds %.3f", a.Value, e, sh))
				}
			}
		case AssertGrants:
			if len(r.Grants) < a.N {
				errs = append(errs, fmt.Errorf("assert grants >= %d: got %d", a.N, len(r.Grants)))
			}
		case AssertTimeouts:
			if !deterministic {
				continue
			}
			total := 0
			for _, t := range r.Timeouts {
				total += t
			}
			if total > a.N {
				errs = append(errs, fmt.Errorf("assert timeouts <= %d: got %d", a.N, total))
			}
		case AssertNoLostGrant:
			// Completion is the runners' watchdog/deadlock detector.
		}
	}
	return errs
}

// Summary renders one substrate run as a byte-exact table (the golden
// determinism tests pin it for the deterministic substrates).
func Summary(c *Compiled, substrate string, r sim.ScriptResult) string {
	s := c.Scenario
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s lock %s seed %d entities %d", s.Name, s.Lock, c.Seed, len(c.Names))
	if len(c.Keyed) > 0 {
		fmt.Fprintf(&b, " keys %d", len(c.Keyed))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "substrate %s\n", substrate)
	fmt.Fprintf(&b, "  %-14s %-10s %7s %9s %5s %12s %6s\n", "entity", "group", "grants", "timeouts", "bans", "hold", "share")
	grants := make([]int, len(c.Names))
	for _, e := range r.Grants {
		grants[e]++
	}
	for i, name := range c.Names {
		g := s.Groups[c.GroupOf[i]].Name
		fmt.Fprintf(&b, "  %-14s %-10s %7d %9d %5d %12s %6.3f\n",
			name, g, grants[i], r.Timeouts[i], r.Bans[i], r.Hold[i], r.HoldShare(i))
	}
	totalT, totalB := 0, 0
	for i := range c.Names {
		totalT += r.Timeouts[i]
		totalB += r.Bans[i]
	}
	fmt.Fprintf(&b, "  total grants %d timeouts %d bans %d jain-hold %.3f\n",
		len(r.Grants), totalT, totalB, JainHold(r))
	if len(c.Keyed) > 0 {
		// Grant order is only defined within a key: one line per key,
		// recovered from the merged order via each entity's key.
		for k := range c.Keyed {
			fmt.Fprintf(&b, "  order[k%d]", k)
			for _, e := range r.Grants {
				if c.KeyOf[e] == k {
					fmt.Fprintf(&b, " %s", c.Names[e])
				}
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	fmt.Fprintf(&b, "  order")
	for _, e := range r.Grants {
		fmt.Fprintf(&b, " %s", c.Names[e])
	}
	b.WriteString("\n")
	return b.String()
}
