package scenario

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"scl"
	"scl/internal/check/oracle"
	"scl/internal/metrics"
	"scl/sim"
	"scl/trace"
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
// under the deterministic checker's virtual clock (the oracle's
// real-side driver). Multi-key scenarios run each key against its own
// real lock, exactly mirroring the simulator's decomposition.
func RunCheck(c *Compiled) (sim.ScriptResult, error) {
	if c.RW != nil {
		return oracle.RunRealRW(*c.RW)
	}
	if len(c.Keyed) > 0 {
		per, err := runCheckKeyed(c)
		if err != nil {
			return sim.ScriptResult{}, err
		}
		return mergeKeyed(c, per), nil
	}
	return oracle.RunReal(*c.Mutex)
}

// runCheckKeyed runs every key's script on the check substrate.
func runCheckKeyed(c *Compiled) ([]sim.ScriptResult, error) {
	per := make([]sim.ScriptResult, len(c.Keyed))
	for k, s := range c.Keyed {
		r, err := oracle.RunReal(*s)
		if err != nil {
			return nil, fmt.Errorf("key %d: %w", k, err)
		}
		per[k] = r
	}
	return per, nil
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
// comparison.
func RunWall(c *Compiled) (sim.ScriptResult, error) {
	if c.RW != nil {
		return runWallRW(c)
	}
	if len(c.Keyed) > 0 {
		return runWallManager(c)
	}
	return runWallMutex(c)
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

func runWallMutex(c *Compiled) (sim.ScriptResult, error) {
	s := c.Scenario
	script := c.Mutex
	res := sim.ScriptResult{
		Timeouts: make([]int, len(script.Entities)),
		Bans:     make([]int, len(script.Entities)),
		Hold:     make([]time.Duration, len(script.Entities)),
	}
	ring := trace.NewRing(1 << 14)
	m := scl.NewMutex(scl.Options{Slice: s.Slice, Tracer: ring, Name: s.Name})
	var mu sync.Mutex // guards res and idToEnt
	idToEnt := make(map[int64]int)
	var wg sync.WaitGroup
	for i, ent := range script.Entities {
		i, ent := i, ent
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Register().SetName(ent.Name)
			mu.Lock()
			idToEnt[h.ID()] = i
			mu.Unlock()
			defer func() {
				if h != nil {
					h.Close()
				}
			}()
			time.Sleep(ent.Start)
			for _, op := range ent.Ops {
				switch op.Kind {
				case sim.OpThink:
					time.Sleep(op.Think)
				case sim.OpAcquire, sim.OpAcquireTimeout:
					if h == nil {
						h = m.Register().SetName(ent.Name)
						mu.Lock()
						idToEnt[h.ID()] = i
						mu.Unlock()
					}
					if op.Kind == sim.OpAcquireTimeout {
						ctx, cancel := context.WithTimeout(context.Background(), op.Timeout)
						err := h.LockContext(ctx)
						cancel()
						if err != nil {
							mu.Lock()
							res.Timeouts[i]++
							mu.Unlock()
							continue
						}
					} else {
						h.Lock()
					}
					at := time.Now()
					mu.Lock()
					res.Grants = append(res.Grants, i)
					mu.Unlock()
					time.Sleep(op.Hold)
					mu.Lock()
					res.Hold[i] += time.Since(at)
					mu.Unlock()
					h.Unlock()
				case sim.OpDo:
					if h == nil {
						h = m.Register().SetName(ent.Name)
						mu.Lock()
						idToEnt[h.ID()] = i
						mu.Unlock()
					}
					var span time.Duration
					h.Do(func() {
						at := time.Now()
						time.Sleep(op.Hold)
						span = time.Since(at)
					})
					// The grant lands when Do returns: the section may have
					// run on another entity's stack, but it ran exactly once
					// and was charged here.
					mu.Lock()
					res.Grants = append(res.Grants, i)
					res.Hold[i] += span
					mu.Unlock()
				case sim.OpClose:
					h.Close()
					h = nil
				}
			}
		}()
	}
	if err := waitWall(&wg, wallWatchdog(s)); err != nil {
		return res, err
	}
	if err := m.CheckInvariants(); err != nil {
		return res, fmt.Errorf("wall-side invariants: %w", err)
	}
	for _, ev := range ring.Events() {
		if ev.Kind == trace.KindBan {
			if i, ok := idToEnt[ev.Entity]; ok {
				res.Bans[i]++
			}
		}
	}
	return res, nil
}

// managerOptions is the lock table every substrate that drives a real
// scl.Manager builds for s. The keys run u-SCL on the scenario's slice,
// as the sim's per-key locks do: a zero slice is the sim's 2ms default,
// not the Manager's own zero default (k-SCL keys).
func managerOptions(s *Scenario) scl.ManagerOptions {
	slice := s.Slice
	if slice == 0 {
		slice = scl.DefaultSlice
	}
	return scl.ManagerOptions{Lock: scl.Options{Slice: slice}, Name: s.Name}
}

// runWallManager executes a multi-key scenario against a real
// scl.Manager on the real clock: one tenant per entity, keys named
// k<i>. Where the deterministic substrates decompose a multi-key
// scenario into independent per-key locks, the wall substrate
// exercises the actual lock-table path — stripe lookup, lazy
// materialization, tenant-level books — so a manager regression shows
// up as a lost grant or invariant failure even though timing-level
// assertions stay sim/check-only.
func runWallManager(c *Compiled) (sim.ScriptResult, error) {
	s := c.Scenario
	res := sim.ScriptResult{
		Timeouts: make([]int, len(c.Names)),
		Bans:     make([]int, len(c.Names)),
		Hold:     make([]time.Duration, len(c.Names)),
	}
	m := scl.NewManager(managerOptions(s))
	var mu sync.Mutex // guards res
	var wg sync.WaitGroup
	for k := range c.Keyed {
		key := fmt.Sprintf("k%d", k)
		for local, ent := range c.Keyed[k].Entities {
			i, ent := c.GlobalOf[k][local], ent
			wg.Add(1)
			go func() {
				defer wg.Done()
				tn := m.Tenant(ent.Name, 1)
				defer func() { tn.Close() }()
				time.Sleep(ent.Start)
				for _, op := range ent.Ops {
					switch op.Kind {
					case sim.OpThink:
						time.Sleep(op.Think)
					case sim.OpAcquire, sim.OpAcquireTimeout:
						var g *scl.Grant
						if op.Kind == sim.OpAcquireTimeout {
							ctx, cancel := context.WithTimeout(context.Background(), op.Timeout)
							var err error
							g, err = tn.LockContext(ctx, key)
							cancel()
							if err != nil {
								mu.Lock()
								res.Timeouts[i]++
								mu.Unlock()
								continue
							}
						} else {
							g = tn.Lock(key)
						}
						at := time.Now()
						mu.Lock()
						res.Grants = append(res.Grants, i)
						mu.Unlock()
						time.Sleep(op.Hold)
						mu.Lock()
						res.Hold[i] += time.Since(at)
						mu.Unlock()
						g.Unlock()
					case sim.OpClose:
						// Close retires the whole tenant identity; the
						// next acquire runs under a fresh registration,
						// matching the single-lock close/re-register
						// lifecycle at table scope.
						tn.Close()
						tn = m.Tenant(ent.Name, 1)
					}
				}
			}()
		}
	}
	if err := waitWall(&wg, wallWatchdog(s)); err != nil {
		return res, err
	}
	if err := m.CheckInvariants(); err != nil {
		return res, fmt.Errorf("wall-side manager invariants: %w", err)
	}
	return res, nil
}

func runWallRW(c *Compiled) (sim.ScriptResult, error) {
	s := c.Scenario
	script := c.RW
	rw, ww := script.ReadWeight, script.WriteWeight
	if rw == 0 {
		rw = 1
	}
	if ww == 0 {
		ww = 1
	}
	period := script.Period
	if period == 0 {
		period = 2 * time.Millisecond
	}
	res := sim.ScriptResult{
		Timeouts: make([]int, len(script.Entities)),
		Bans:     make([]int, len(script.Entities)),
		Hold:     make([]time.Duration, len(script.Entities)),
	}
	l := scl.NewRWLock(rw, ww, period)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, ent := range script.Entities {
		i, ent := i, ent
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(ent.Start)
			for _, op := range ent.Ops {
				switch op.Kind {
				case sim.OpThink:
					time.Sleep(op.Think)
				case sim.OpAcquire:
					if ent.Writer {
						l.WLock()
					} else {
						l.RLock()
					}
					at := time.Now()
					mu.Lock()
					res.Grants = append(res.Grants, i)
					mu.Unlock()
					time.Sleep(op.Hold)
					mu.Lock()
					res.Hold[i] += time.Since(at)
					mu.Unlock()
					if ent.Writer {
						l.WUnlock()
					} else {
						l.RUnlock()
					}
				}
			}
		}()
	}
	if err := waitWall(&wg, wallWatchdog(s)); err != nil {
		return res, err
	}
	if err := l.CheckInvariants(); err != nil {
		return res, fmt.Errorf("wall-side RW invariants: %w", err)
	}
	return res, nil
}

// waitWall waits for the run's goroutines with a deadline; a timeout
// is reported as a lost grant (some entity never completed its
// script).
func waitWall(wg *sync.WaitGroup, d time.Duration) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("wall run stalled: entities still blocked after %v (lost grant?)", d)
	}
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

// DivGrantCount is the scenario oracle's own divergence code: emitted
// when a scenario allows grant-order (reader batches released in a
// different permutation) but the per-entity grant counts still
// disagree — a permutation excuses ordering, never volume. It can
// never be allowed.
const DivGrantCount = "grant-count"

// Diff runs the compiled scenario on the sim and check substrates and
// compares them with the differential oracle, splitting findings into
// divergences the scenario documents (its allow list) and undocumented
// ones. This is the corpus-wide generalization of the oracle's curated
// cases: any deterministic scenario is a differential test. When a
// scenario allows grant-order, the grant multiset is still enforced:
// each entity must be granted the same number of times on both sides.
// Multi-key scenarios compare key by key: each key is an independent
// lock on both substrates, so grant order is only defined within a
// key, and a divergence names the key it came from.
func Diff(c *Compiled) (allowed, undocumented []oracle.Divergence, err error) {
	if len(c.Keyed) > 0 {
		return diffKeyed(c)
	}
	simR := RunSim(c)
	realR, err := RunCheck(c)
	if err != nil {
		return nil, nil, err
	}
	return splitDivergences(c, oracle.Compare(simR, realR), simR, realR, -1)
}

// diffKeyed runs the per-key differential comparison of a multi-key
// scenario.
func diffKeyed(c *Compiled) (allowed, undocumented []oracle.Divergence, err error) {
	simPer := make([]sim.ScriptResult, len(c.Keyed))
	for k, s := range c.Keyed {
		simPer[k] = sim.RunScript(*s)
	}
	realPer, err := runCheckKeyed(c)
	if err != nil {
		return nil, nil, err
	}
	for k := range c.Keyed {
		a, u, err := splitDivergences(c, oracle.Compare(simPer[k], realPer[k]), simPer[k], realPer[k], k)
		if err != nil {
			return nil, nil, err
		}
		allowed = append(allowed, a...)
		undocumented = append(undocumented, u...)
	}
	return allowed, undocumented, nil
}

// splitDivergences sorts comparator findings into documented and
// undocumented per the scenario's allow list, applies the grant-count
// supplement when grant-order is allowed, and prefixes the key of a
// multi-key comparison (key >= 0) so a divergence names its lock.
func splitDivergences(c *Compiled, divs []oracle.Divergence, simR, realR sim.ScriptResult, key int) (allowed, undocumented []oracle.Divergence, err error) {
	tag := func(d oracle.Divergence) oracle.Divergence {
		if key >= 0 {
			d.Detail = fmt.Sprintf("key %d: %s", key, d.Detail)
		}
		return d
	}
	for _, d := range divs {
		if contains(c.Scenario.Allow, d.Code) {
			allowed = append(allowed, tag(d))
		} else {
			undocumented = append(undocumented, tag(d))
		}
	}
	if contains(c.Scenario.Allow, oracle.DivGrantOrder) {
		a, b := foldGrants(simR), foldGrants(realR)
		for e := range a {
			if a[e] != b[e] {
				undocumented = append(undocumented, tag(oracle.Divergence{
					Code:   DivGrantCount,
					Detail: fmt.Sprintf("entity %d: sim %d grants, real %d", e, a[e], b[e]),
				}))
			}
		}
	}
	return allowed, undocumented, nil
}

// foldGrants folds a grant order into per-entity counts (indexed by
// whatever entity space r uses — global for merged results, local for
// one key's).
func foldGrants(r sim.ScriptResult) []int {
	counts := make([]int, len(r.Hold))
	for _, e := range r.Grants {
		counts[e]++
	}
	return counts
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
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
