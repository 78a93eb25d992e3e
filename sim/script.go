package sim

import (
	"fmt"
	"time"

	"scl/trace"
)

// This file defines the differential oracle's shared workload format: a
// Script is a fully deterministic, timing-explicit description of a
// lock workload that can be executed both by this simulator (RunScript)
// and by the real scl library under the deterministic checker
// (internal/scenario, RunCheck). The two executions are then compared
// grant-by-grant. Scripts should keep their timings on the millisecond
// scale and well separated: the simulator charges nanosecond-scale
// micro-architectural costs (CAS, wake latency) that the real library's
// virtual clock does not, so decisions separated by less than ~10µs may
// legitimately resolve differently on the two sides. For the same
// reason a re-request that lands exactly on a slice or phase boundary
// is a tie the two sides may resolve differently.

// ScriptOpKind enumerates the operations of a Script.
type ScriptOpKind int

// Script operations.
const (
	// OpThink spends off-lock time (Think).
	OpThink ScriptOpKind = iota
	// OpAcquire takes the lock, holds it for Hold, and releases it.
	OpAcquire
	// OpAcquireTimeout is OpAcquire with a give-up deadline (Timeout):
	// if the lock is not granted in time the op abandons the wait.
	OpAcquireTimeout
	// OpClose deregisters the entity mid-script (scl.Handle.Close); a
	// later acquire re-registers it with fresh usage.
	OpClose
	// OpDo runs the critical section through the combining API (USCL.Do,
	// scl.Handle.Do): a contended call may be executed by the current
	// holder on the caller's behalf, with usage charged to the caller
	// either way. The grant is recorded when the call returns, so two
	// substrates may legitimately order concurrent OpDo grants
	// differently (scenario files allow grant-order for that).
	OpDo
	// OpTry is one non-blocking attempt (scl.Handle.TryLock) that holds
	// for Hold when it succeeds. Real locks only: RunScript panics on it
	// and the scenario compiler never emits it.
	OpTry
	// OpCloseHeld acquires, closes the entity's handle while holding,
	// and releases through the closed handle after Hold; a later op
	// reopens it. Real locks only, like OpTry.
	OpCloseHeld
)

// ScriptOp is one scripted operation.
type ScriptOp struct {
	Kind    ScriptOpKind
	Hold    time.Duration // critical-section length (acquire kinds)
	Think   time.Duration // off-lock time (OpThink)
	Timeout time.Duration // give-up deadline (OpAcquireTimeout)
	Key     int           // lock-table key the op addresses
}

// ScriptEntity is one entity's deterministic operation sequence.
type ScriptEntity struct {
	Name  string
	Start time.Duration // delay before the first op
	Ops   []ScriptOp
}

// Script is a deterministic lock workload, executable both by the
// simulator and by the real scl library.
type Script struct {
	// Slice is the lock slice (0 = the paper's 2ms default).
	Slice time.Duration
	// Horizon bounds the virtual run time (0 = 1s).
	Horizon time.Duration
	// Entities are the concurrent actors, each on its own CPU.
	Entities []ScriptEntity
}

// ScriptResult is what a script execution observed; the oracle compares
// two of these field by field.
type ScriptResult struct {
	// Grants is the global grant order: one entity index per successful
	// acquisition, in acquisition order.
	Grants []int
	// Timeouts counts abandoned OpAcquireTimeout ops per entity index.
	Timeouts []int
	// Bans counts imposed penalties per entity index.
	Bans []int
	// Hold is the measured in-critical-section time per entity index.
	Hold []time.Duration
}

// HoldShare returns entity e's fraction of the total measured hold time
// (0 when nothing was held).
func (r ScriptResult) HoldShare(e int) float64 {
	var total time.Duration
	for _, h := range r.Hold {
		total += h
	}
	if total == 0 {
		return 0
	}
	return float64(r.Hold[e]) / float64(total)
}

// String renders the result compactly for divergence reports.
func (r ScriptResult) String() string {
	return fmt.Sprintf("grants=%v timeouts=%v bans=%v holds=%v", r.Grants, r.Timeouts, r.Bans, r.Hold)
}

// RunScript executes the script on a fresh simulated SCL, one task per
// entity pinned to its own CPU (so waits measure lock behaviour, not
// CPU contention), and returns what it observed. The lock runs in the
// parked (no-prefetch) configuration: a spinning head waiter could
// never abandon on timeout, while the real library's LockContext can
// abandon any queued waiter until the grant lands.
func RunScript(s Script) ScriptResult {
	slice := s.Slice
	if slice == 0 {
		slice = 2 * time.Millisecond
	}
	horizon := s.Horizon
	if horizon == 0 {
		horizon = time.Second
	}
	e := New(Config{CPUs: len(s.Entities), Horizon: horizon, Seed: 1})
	e.EnableTrace(1 << 16)
	l := NewSCL(e, USCLParams{Slice: slice})
	res := ScriptResult{
		Timeouts: make([]int, len(s.Entities)),
		Bans:     make([]int, len(s.Entities)),
		Hold:     make([]time.Duration, len(s.Entities)),
	}
	for i, ent := range s.Entities {
		i, ent := i, ent
		e.Spawn(ent.Name, TaskConfig{CPU: i, Start: ent.Start}, func(t *Task) {
			for _, op := range ent.Ops {
				switch op.Kind {
				case OpThink:
					t.Sleep(op.Think)
				case OpAcquire, OpAcquireTimeout:
					if op.Kind == OpAcquireTimeout {
						if !l.LockTimeout(t, op.Timeout) {
							res.Timeouts[i]++
							continue
						}
					} else {
						l.Lock(t)
					}
					res.Grants = append(res.Grants, i)
					at := t.Now()
					t.Compute(op.Hold)
					res.Hold[i] += t.Now() - at
					l.Unlock(t)
				case OpClose:
					l.CloseEntity(t)
				case OpDo:
					l.Do(t, op.Hold)
					res.Grants = append(res.Grants, i)
					res.Hold[i] += op.Hold
				default:
					panic(fmt.Sprintf("sim: script op kind %d runs on the real locks only", op.Kind))
				}
			}
			// End-of-script close, mirroring a real entity's deferred
			// Handle.Close: the entity leaves the books so the survivors'
			// fair shares are computed over live entities only.
			l.CloseEntity(t)
		})
	}
	e.Run()
	byName := make(map[string]int, len(s.Entities))
	for i, ent := range s.Entities {
		byName[ent.Name] = i
	}
	for _, ev := range e.TraceEvents() {
		if ev.Kind == trace.KindBan {
			if i, ok := byName[ev.Name]; ok {
				res.Bans[i]++
			}
		}
	}
	return res
}
