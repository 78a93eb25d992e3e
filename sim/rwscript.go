package sim

import "time"

// RWScriptEntity is one reader or writer in an RW script.
type RWScriptEntity struct {
	Name string
	// Writer selects the write class; false means reader.
	Writer bool
	// Start delays the first op.
	Start time.Duration
	// Ops may use OpThink and OpAcquire only (the RW locks have no
	// per-entity close, and the oracle scripts cancellation through
	// mutex scripts instead).
	Ops []ScriptOp
}

// RWScript is the RW-SCL counterpart of Script: a deterministic
// reader/writer workload executable by both the simulator (RunRWScript)
// and the real scl.RWLock (internal/scenario, RunCheck). The same timing
// discipline applies: keep decisions millisecond-separated.
type RWScript struct {
	// Period is the phase-alternation period (0 = 2ms).
	Period time.Duration
	// ReadWeight/WriteWeight set the class weights (0 = 1).
	ReadWeight, WriteWeight int64
	// Horizon bounds the virtual run (0 = 1s).
	Horizon time.Duration
	// Entities are the actors, each on its own CPU.
	Entities []RWScriptEntity
}

// RunRWScript executes the script on a fresh simulated RW-SCL and
// returns the observations in ScriptResult form (Timeouts and Bans stay
// zero: the RW classes alternate phases instead of banning, and RW
// scripts carry no cancellable acquires).
func RunRWScript(s RWScript) ScriptResult {
	period := s.Period
	if period == 0 {
		period = 2 * time.Millisecond
	}
	rw, ww := s.ReadWeight, s.WriteWeight
	if rw == 0 {
		rw = 1
	}
	if ww == 0 {
		ww = 1
	}
	horizon := s.Horizon
	if horizon == 0 {
		horizon = time.Second
	}
	e := New(Config{CPUs: len(s.Entities), Horizon: horizon, Seed: 1})
	l := NewRWSCL(e, period, rw, ww)
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
				case OpAcquire:
					if ent.Writer {
						l.WLock(t)
					} else {
						l.RLock(t)
					}
					res.Grants = append(res.Grants, i)
					at := t.Now()
					t.Compute(op.Hold)
					res.Hold[i] += t.Now() - at
					if ent.Writer {
						l.WUnlock(t)
					} else {
						l.RUnlock(t)
					}
				}
			}
		})
	}
	e.Run()
	return res
}
