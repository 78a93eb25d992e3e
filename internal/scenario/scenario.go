// Package scenario is the declarative workload language for the scl
// locks: a text format (in the spirit of tsload/.rex experiment files)
// declares entity populations, arrival processes, critical-section and
// think-time distributions, the lock under test, and per-scenario
// assertions; a compiler lowers every scenario to a deterministic
// operation script (sim.Script / sim.RWScript); and a runner executes
// the compiled script on three substrates:
//
//   - sim: the discrete-event simulator (sim.RunScript/RunRWScript),
//   - check: the real scl library under the deterministic checker's
//     virtual clock, and
//   - wall: real goroutines on the real clock.
//
// The check and wall substrates and the explorer's Workload share one
// op loop (drive.go) over the real Mutex, RWLock or Manager.
//
// A scenario normally targets one lock; `keys <n>` widens it to a
// keyed lock table (mutex only), with each group pinned to one key via
// `key <i>`. The deterministic substrates decompose a multi-key
// scenario into independent per-key scripts — keys of a table are
// independent locks, so sim and check compare key by key — while the
// wall substrate drives a real scl.Manager (one tenant per entity), so
// the table path itself runs under the real scheduler.
//
// Because compilation samples every random draw up front with the
// scenario's seed, the sim and check substrates see byte-identical
// workloads, and every scenario in the corpus is a differential test
// (Diff): grant order, timeout and ban counts, and hold shares must
// agree modulo the documented divergences (diff.go) plus any
// per-scenario `allow` lines. The wall substrate shares the same script but runs
// under the real scheduler, so only structural assertions (completion,
// grant floors) are enforced there; timing-sensitive assertions (Jain
// floors, share bounds, timeout counts) gate the deterministic
// substrates only.
package scenario

import (
	"fmt"
	"time"
)

// LockKind selects the lock a scenario runs against.
type LockKind int

const (
	// LockMutex is the u-SCL mutual-exclusion lock.
	LockMutex LockKind = iota
	// LockRW is the RW-SCL reader/writer lock.
	LockRW
)

// String returns the keyword used in scenario files.
func (k LockKind) String() string {
	if k == LockRW {
		return "rw"
	}
	return "mutex"
}

// ArrivalKind enumerates the arrival processes a group can declare.
type ArrivalKind int

const (
	// ArrivalClosed is a closed loop: each entity re-requests after a
	// think-time draw from the group's think distribution.
	ArrivalClosed ArrivalKind = iota
	// ArrivalPoisson paces each entity by exponential inter-arrival
	// gaps with the declared mean (an open Poisson process, run in the
	// paced-closed-loop approximation: a gap is waited out after the
	// previous operation completes, so arrivals drift late when the
	// lock saturates — the standard load-generator compromise, and
	// identical on every substrate because gaps are pre-sampled).
	ArrivalPoisson
	// ArrivalStepped is tsload's stepped load: `steps <dur> c1 c2 ...`
	// dispatches c_i requests evenly spaced inside the i-th step
	// window, round-robined across the group's entities. Step
	// boundaries land on exact virtual-clock ticks.
	ArrivalStepped
)

// String returns the keyword used in scenario files.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalPoisson:
		return "poisson"
	case ArrivalStepped:
		return "stepped"
	}
	return "closed"
}

// DistKind enumerates duration distributions.
type DistKind int

const (
	// DistFixed always draws A.
	DistFixed DistKind = iota
	// DistUniform draws uniformly from [A, B].
	DistUniform
	// DistExp draws exponentially with mean A, capped at 8x the mean
	// so one draw cannot blow past a scenario's horizon.
	DistExp
)

// Dist is a duration distribution; draws are quantized to Quantum so
// distinct virtual-time events stay separated by more than the
// simulator's cost-model jitter (see the oracle's documented
// divergences).
type Dist struct {
	Kind DistKind
	// A is the fixed value (fixed), lower bound (uniform), or mean
	// (exp).
	A time.Duration
	// B is the upper bound (uniform only).
	B time.Duration
}

// String renders the distribution in scenario-file syntax.
func (d Dist) String() string {
	switch d.Kind {
	case DistUniform:
		return fmt.Sprintf("uniform %s %s", d.A, d.B)
	case DistExp:
		return fmt.Sprintf("exp %s", d.A)
	default:
		return fmt.Sprintf("fixed %s", d.A)
	}
}

// Arrival is a group's declared arrival process.
type Arrival struct {
	Kind ArrivalKind
	// Mean is the Poisson mean inter-arrival gap (poisson only).
	Mean time.Duration
	// Step is the stepped-load window length (stepped only).
	Step time.Duration
	// Counts are the per-step request counts (stepped only).
	Counts []int
}

// String renders the arrival process in scenario-file syntax.
func (a Arrival) String() string {
	switch a.Kind {
	case ArrivalPoisson:
		return fmt.Sprintf("poisson %s", a.Mean)
	case ArrivalStepped:
		s := fmt.Sprintf("stepped %s", a.Step)
		for _, c := range a.Counts {
			s += fmt.Sprintf(" %d", c)
		}
		return s
	default:
		return "closed"
	}
}

// Group declares a population of identically-distributed entities.
type Group struct {
	// Name prefixes the entity names (entity i is Name<i>).
	Name string
	// Count is the population size.
	Count int
	// Key is the lock-table key index the group's entities run against
	// (multi-key scenarios; 0 in single-key scenarios). Entities never
	// span keys: a group is pinned to one key for its whole script.
	Key int
	// Writer marks an RW scenario's writer class (readers otherwise);
	// invalid in mutex scenarios.
	Writer bool
	// Start delays the whole group.
	Start time.Duration
	// Stagger additionally delays entity i by i*Stagger, keeping
	// same-group entities off each other's virtual-clock ticks.
	Stagger time.Duration
	// Arrival is the request arrival process.
	Arrival Arrival
	// Ops is the number of acquisitions per entity (closed/poisson;
	// stepped derives it from the step counts).
	Ops int
	// CS is the critical-section length distribution.
	CS Dist
	// Think is the think-time distribution (closed arrivals only).
	Think Dist
	// Timeout, when positive, makes every acquire cancellable with
	// this give-up deadline (mutex scenarios only).
	Timeout time.Duration
	// CloseEvery, when positive, closes and re-registers the entity
	// after every CloseEvery-th acquisition (mutex scenarios only).
	CloseEvery int
	// Do routes every critical section through the combining API
	// (scl.Handle.Do / sim USCL.Do) instead of Lock/Unlock: a
	// contended section may execute on the current holder's stack,
	// with usage charged to this entity either way. Single-key mutex
	// scenarios only (the lock table has no combining API), and
	// incompatible with timeout (Do has no cancellable variant).
	// Grants are recorded when the call returns, so combine
	// scenarios normally carry `allow grant-order`.
	Do bool
}

// AssertKind enumerates scenario assertions.
type AssertKind int

const (
	// AssertJainHold: Jain's fairness index over per-entity hold time
	// must be >= Value. Deterministic substrates only.
	AssertJainHold AssertKind = iota
	// AssertMaxShare: no entity's hold share may exceed Value — the
	// opportunity-imbalance bound in share form. Deterministic
	// substrates only.
	AssertMaxShare
	// AssertGrants: total successful acquisitions must be >= N. All
	// substrates.
	AssertGrants
	// AssertTimeouts: total timed-out acquires must be <= N.
	// Deterministic substrates only.
	AssertTimeouts
	// AssertNoLostGrant: the run must complete every scripted
	// operation (no deadlock, no waiter stranded past the watchdog).
	// All substrates; the runner enforces completion regardless, so
	// this assertion is declarative documentation that a scenario is
	// specifically a lost-grant hunt.
	AssertNoLostGrant
)

// Assert is one declared scenario assertion.
type Assert struct {
	Kind  AssertKind
	Value float64 // jain-hold / max-share
	N     int     // grants / timeouts
}

// String renders the assertion in scenario-file syntax.
func (a Assert) String() string {
	switch a.Kind {
	case AssertJainHold:
		return fmt.Sprintf("jain-hold >= %g", a.Value)
	case AssertMaxShare:
		return fmt.Sprintf("max-share <= %g", a.Value)
	case AssertGrants:
		return fmt.Sprintf("grants >= %d", a.N)
	case AssertTimeouts:
		return fmt.Sprintf("timeouts <= %d", a.N)
	default:
		return "no-lost-grant"
	}
}

// Scenario is one parsed scenario file.
type Scenario struct {
	// Name identifies the scenario in summaries, goldens, and the CLI.
	Name string
	// Lock selects the lock under test.
	Lock LockKind
	// Slice is the u-SCL slice (mutex; 0 = the lock's 2ms default).
	Slice time.Duration
	// Keys, when > 1, makes this a multi-key scenario: the workload is
	// a keyed lock table (keys k0..k<Keys-1>) instead of one lock, and
	// each group pins its entities to one key. The deterministic
	// substrates run each key's script independently (keys of a table
	// are independent locks) and merge the per-entity results; the wall
	// substrate drives a real scl.Manager with one tenant per entity.
	// Multi-key is mutex-only. 0 or 1 means the classic single-lock
	// form.
	Keys int
	// Period is the RW-SCL phase period (rw; 0 = 2ms).
	Period time.Duration
	// ReadWeight/WriteWeight are the RW class weights (0 = 1).
	ReadWeight, WriteWeight int64
	// Seed drives every random draw at compile time.
	Seed int64
	// Horizon bounds the virtual run (0 = 1s).
	Horizon time.Duration
	// Groups are the entity populations, in declaration order.
	Groups []Group
	// Asserts are the declared assertions, in declaration order.
	Asserts []Assert
	// Allow lists oracle divergence codes documented as acceptable for
	// this scenario (each needs a rationale in EXPERIMENTS.md).
	Allow []string
}

// Entities returns the total entity count across groups.
func (s *Scenario) Entities() int {
	n := 0
	for _, g := range s.Groups {
		n += g.Count
	}
	return n
}

// KeyCount returns the number of lock-table keys the scenario spans
// (1 for the classic single-lock form).
func (s *Scenario) KeyCount() int {
	if s.Keys > 1 {
		return s.Keys
	}
	return 1
}

// Validate checks cross-field consistency beyond what the parser can
// see line by line.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario has no name")
	}
	if len(s.Groups) == 0 {
		return fmt.Errorf("scenario %s: no entity groups", s.Name)
	}
	if s.Keys < 0 {
		return fmt.Errorf("scenario %s: keys must be >= 0", s.Name)
	}
	if s.Keys > 1 && s.Lock != LockMutex {
		return fmt.Errorf("scenario %s: multi-key (keys %d) is mutex-only", s.Name, s.Keys)
	}
	seen := map[string]bool{}
	for i := range s.Groups {
		g := &s.Groups[i]
		if g.Name == "" {
			return fmt.Errorf("scenario %s: group %d has no name", s.Name, i)
		}
		if seen[g.Name] {
			return fmt.Errorf("scenario %s: duplicate group %q", s.Name, g.Name)
		}
		seen[g.Name] = true
		if g.Count <= 0 {
			return fmt.Errorf("scenario %s: group %s: count must be positive", s.Name, g.Name)
		}
		if s.Lock == LockMutex && g.Writer {
			return fmt.Errorf("scenario %s: group %s: class writer is rw-only", s.Name, g.Name)
		}
		if g.Key < 0 || g.Key >= s.KeyCount() {
			return fmt.Errorf("scenario %s: group %s: key %d out of range [0, %d)", s.Name, g.Name, g.Key, s.KeyCount())
		}
		if s.Lock == LockRW && (g.Timeout > 0 || g.CloseEvery > 0) {
			return fmt.Errorf("scenario %s: group %s: timeout/close-every are mutex-only", s.Name, g.Name)
		}
		if g.Do {
			if s.Lock != LockMutex {
				return fmt.Errorf("scenario %s: group %s: do is mutex-only", s.Name, g.Name)
			}
			if s.Keys > 1 {
				return fmt.Errorf("scenario %s: group %s: do is single-key-only (the lock table has no combining API)", s.Name, g.Name)
			}
			if g.Timeout > 0 {
				return fmt.Errorf("scenario %s: group %s: do is incompatible with timeout (Do has no cancellable variant)", s.Name, g.Name)
			}
		}
		switch g.Arrival.Kind {
		case ArrivalStepped:
			if g.Ops > 0 {
				return fmt.Errorf("scenario %s: group %s: ops is derived from stepped counts", s.Name, g.Name)
			}
			if g.Arrival.Step <= 0 {
				return fmt.Errorf("scenario %s: group %s: stepped needs a positive step length", s.Name, g.Name)
			}
			if len(g.Arrival.Counts) == 0 {
				return fmt.Errorf("scenario %s: group %s: stepped needs at least one step count", s.Name, g.Name)
			}
			total := 0
			for _, c := range g.Arrival.Counts {
				if c < 0 {
					return fmt.Errorf("scenario %s: group %s: negative step count", s.Name, g.Name)
				}
				total += c
			}
			if total == 0 {
				return fmt.Errorf("scenario %s: group %s: stepped schedule dispatches no requests", s.Name, g.Name)
			}
		default:
			if g.Ops <= 0 {
				return fmt.Errorf("scenario %s: group %s: ops must be positive", s.Name, g.Name)
			}
		}
		if g.Arrival.Kind == ArrivalPoisson && g.Arrival.Mean <= 0 {
			return fmt.Errorf("scenario %s: group %s: poisson needs a positive mean gap", s.Name, g.Name)
		}
		if err := validDist("cs", g.CS); err != nil {
			return fmt.Errorf("scenario %s: group %s: %w", s.Name, g.Name, err)
		}
		if g.Arrival.Kind == ArrivalClosed {
			if err := validDist("think", g.Think); err != nil {
				return fmt.Errorf("scenario %s: group %s: %w", s.Name, g.Name, err)
			}
		} else if g.Think != (Dist{}) {
			return fmt.Errorf("scenario %s: group %s: think is closed-arrival-only", s.Name, g.Name)
		}
	}
	if s.Keys > 1 {
		used := make([]bool, s.Keys)
		for i := range s.Groups {
			used[s.Groups[i].Key] = true
		}
		for k, u := range used {
			if !u {
				return fmt.Errorf("scenario %s: key %d has no groups (declared keys %d)", s.Name, k, s.Keys)
			}
		}
	}
	for _, code := range s.Allow {
		switch code {
		case DivGrantOrder, DivTimeouts, DivBans, DivHoldShare:
		default:
			return fmt.Errorf("scenario %s: unknown allow code %q", s.Name, code)
		}
	}
	return nil
}

// validDist rejects degenerate distribution parameters.
func validDist(what string, d Dist) error {
	switch d.Kind {
	case DistFixed, DistExp:
		if d.A <= 0 {
			return fmt.Errorf("%s %s: needs a positive duration", what, d)
		}
	case DistUniform:
		if d.A <= 0 || d.B < d.A {
			return fmt.Errorf("%s %s: needs 0 < lo <= hi", what, d)
		}
	}
	return nil
}
