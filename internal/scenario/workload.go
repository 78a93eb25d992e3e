package scenario

import (
	"context"
	"fmt"

	"scl"
	"scl/internal/check"
	"scl/sim"
)

// Workload adapts a compiled scenario into an explorable
// internal/check workload: the real lock is driven by the scenario's
// scripted operations while the explorer perturbs the schedule at
// every instrumented decision site, asserting mutual exclusion after
// every grant, the lock invariants (accountant conservation) after
// every operation, and clean teardown. No lost grant is the
// scheduler's deadlock detector. This runs the corpus through
// schedules the deterministic substrates never produce — the same
// scenario files serve as differential-oracle inputs and as
// exploration seeds.
func Workload(c *Compiled) check.Workload {
	if c.RW != nil {
		return rwWorkload(c)
	}
	if len(c.Keyed) > 0 {
		return managerWorkload(c)
	}
	return mutexWorkload(c)
}

func mutexWorkload(c *Compiled) check.Workload {
	s := c.Scenario
	var m *scl.Mutex
	return check.Workload{
		Name: "scenario:" + s.Name,
		Setup: func(sched *check.Sched) {
			m = scl.NewMutex(scl.Options{Slice: s.Slice, Name: s.Name})
			held := new(int)
			for i, ent := range c.Mutex.Entities {
				ent := ent
				h := m.Register().SetName(ent.Name)
				sched.Go(fmt.Sprintf("e%d", i), func() {
					runMutexOps(sched, m, h, ent, held)
				})
			}
		},
		Validate: func() error {
			if err := m.CheckInvariants(); err != nil {
				return err
			}
			if n := m.Entities(); n != 0 {
				return fmt.Errorf("%d entities still registered after all handles closed", n)
			}
			return nil
		},
	}
}

// runMutexOps drives one entity's scripted ops under the explorer.
func runMutexOps(sched *check.Sched, m *scl.Mutex, h *scl.Handle, ent sim.ScriptEntity, held *int) {
	defer func() {
		if h != nil {
			h.Close()
		}
	}()
	enter := func() {
		*held++
		if *held != 1 {
			sched.Failf("mutual exclusion violated: %d holders", *held)
		}
	}
	check.Sleep(ent.Start)
	for i, op := range ent.Ops {
		switch op.Kind {
		case sim.OpThink:
			check.Sleep(op.Think)
		case sim.OpAcquire, sim.OpAcquireTimeout:
			if h == nil {
				h = m.Register().SetName(ent.Name)
			}
			if op.Kind == sim.OpAcquireTimeout {
				ctx, cancel := context.WithCancel(context.Background())
				op := op
				sched.Go("canceller", func() {
					check.Sleep(op.Timeout)
					cancel()
				})
				err := h.LockContext(ctx)
				cancel()
				if err != nil {
					break
				}
				enter()
				check.Sleep(op.Hold)
				*held--
				h.Unlock()
			} else {
				h.Lock()
				enter()
				check.Sleep(op.Hold)
				*held--
				h.Unlock()
			}
		case sim.OpDo:
			if h == nil {
				h = m.Register().SetName(ent.Name)
			}
			// The section may run on the current holder's goroutine; the
			// shared held counter still sees exactly one holder because
			// combined sections execute under the lock's exclusion.
			h.Do(func() {
				enter()
				check.Sleep(op.Hold)
				*held--
			})
		case sim.OpClose:
			h.Close()
			h = nil
		}
		if err := m.CheckInvariants(); err != nil {
			sched.Failf("invariants broken after op %d: %v", i, err)
		}
	}
}

// managerWorkload drives a multi-key scenario against a real
// scl.Manager under the explorer: one tenant per entity, one key per
// group's declared index, mutual exclusion asserted per key (keys are
// independent locks, so a cross-key hold is legal; two holders of the
// same key never are). OpClose closes the whole tenant and
// re-registers it, churning the stripe books and handle pools through
// every explored schedule. Teardown must leave the table with zero
// tenant identities.
func managerWorkload(c *Compiled) check.Workload {
	s := c.Scenario
	var m *scl.Manager
	return check.Workload{
		Name: "scenario:" + s.Name,
		Setup: func(sched *check.Sched) {
			m = scl.NewManager(managerOptions(s), scl.WithStripes(2))
			held := make([]int, len(c.Keyed))
			for k := range c.Keyed {
				key := fmt.Sprintf("k%d", k)
				for local, ent := range c.Keyed[k].Entities {
					g, ent := c.GlobalOf[k][local], ent
					sched.Go(fmt.Sprintf("e%d", g), func() {
						runManagerOps(sched, m, key, ent, &held[c.KeyOf[g]])
					})
				}
			}
		},
		Validate: func() error {
			if err := m.CheckInvariants(); err != nil {
				return err
			}
			if n := m.Stats().Identities; n != 0 {
				return fmt.Errorf("%d tenant identities left after all tenants closed", n)
			}
			return nil
		},
	}
}

// runManagerOps drives one entity's scripted ops against the manager
// under the explorer.
func runManagerOps(sched *check.Sched, m *scl.Manager, key string, ent sim.ScriptEntity, held *int) {
	tn := m.Tenant(ent.Name, 1)
	defer func() { tn.Close() }()
	enter := func() {
		*held++
		if *held != 1 {
			sched.Failf("mutual exclusion violated on %s: %d holders", key, *held)
		}
	}
	check.Sleep(ent.Start)
	for i, op := range ent.Ops {
		switch op.Kind {
		case sim.OpThink:
			check.Sleep(op.Think)
		case sim.OpAcquire, sim.OpAcquireTimeout:
			var g *scl.Grant
			if op.Kind == sim.OpAcquireTimeout {
				ctx, cancel := context.WithCancel(context.Background())
				op := op
				sched.Go("canceller", func() {
					check.Sleep(op.Timeout)
					cancel()
				})
				var err error
				g, err = tn.LockContext(ctx, key)
				cancel()
				if err != nil {
					break
				}
			} else {
				g = tn.Lock(key)
			}
			enter()
			check.Sleep(op.Hold)
			*held--
			g.Unlock()
		case sim.OpClose:
			tn.Close()
			tn = m.Tenant(ent.Name, 1)
		}
		if err := m.CheckInvariants(); err != nil {
			sched.Failf("manager invariants broken after op %d: %v", i, err)
		}
	}
}

func rwWorkload(c *Compiled) check.Workload {
	s := c.Scenario
	rw, ww := s.ReadWeight, s.WriteWeight
	if rw == 0 {
		rw = 1
	}
	if ww == 0 {
		ww = 1
	}
	period := s.Period
	var l *scl.RWLock
	return check.Workload{
		Name: "scenario:" + s.Name,
		Setup: func(sched *check.Sched) {
			l = scl.NewRWLock(rw, ww, period)
			readers := new(int)
			writers := new(int)
			for i, ent := range c.RW.Entities {
				ent := ent
				sched.Go(fmt.Sprintf("e%d", i), func() {
					runRWOps(sched, l, ent, readers, writers)
				})
			}
		},
		Validate: func() error { return l.CheckInvariants() },
	}
}

// runRWOps drives one RW entity's scripted ops under the explorer.
func runRWOps(sched *check.Sched, l *scl.RWLock, ent sim.RWScriptEntity, readers, writers *int) {
	check.Sleep(ent.Start)
	for i, op := range ent.Ops {
		switch op.Kind {
		case sim.OpThink:
			check.Sleep(op.Think)
		case sim.OpAcquire:
			if ent.Writer {
				l.WLock()
				*writers++
			} else {
				l.RLock()
				*readers++
			}
			if *writers > 1 {
				sched.Failf("%d writers active", *writers)
			}
			if *writers == 1 && *readers > 0 {
				sched.Failf("writer active with %d readers", *readers)
			}
			check.Sleep(op.Hold)
			if ent.Writer {
				*writers--
				l.WUnlock()
			} else {
				*readers--
				l.RUnlock()
			}
		}
		if err := l.CheckInvariants(); err != nil {
			sched.Failf("invariants broken after op %d: %v", i, err)
		}
	}
}
