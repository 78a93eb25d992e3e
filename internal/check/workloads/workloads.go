// Package workloads defines the explorable scenarios the deterministic
// checker (internal/check) runs against the real scl locks. Each
// workload builds a fresh lock per explored schedule, drives it from
// managed goroutines, and asserts the paper's guarantees on every
// schedule: mutual exclusion, no lost grants (via the scheduler's
// deadlock detector), accounting conservation (CheckInvariants after
// every operation), and the opportunity-imbalance bound. The package is
// shared by `go test ./internal/check` and the cmd/sclcheck CLI.
package workloads

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"scl"
	"scl/internal/check"
)

// opKind enumerates the scripted operations of the churn workloads.
type opKind int

const (
	opLock opKind = iota
	opTry
	opCancel // cancellable acquire whose context fires mid-flight
	opThink  // off-lock virtual time
	opClose  // close the handle mid-run and reopen a fresh one
)

type op struct {
	kind opKind
	hold time.Duration // critical-section length (lock ops)
	wait time.Duration // think time, or cancel delay
}

// MutexOpts configures the Mutex churn workload.
type MutexOpts struct {
	// Entities is the number of concurrent entities (default 3).
	Entities int
	// Ops is the number of scripted operations per entity (default 4).
	Ops int
	// Slice is the lock slice (default 2ms, the paper's).
	Slice time.Duration
	// Seed derives each entity's deterministic op script.
	Seed int64
	// Cancel mixes in cancellable acquires abandoned mid-flight.
	Cancel bool
	// CloseMid mixes in mid-run Close/reopen churn.
	CloseMid bool
	// GC enables the inactive-entity GC with a tight threshold, pulling
	// the reap paths into the explored schedules.
	GC bool
}

func (o *MutexOpts) defaults() {
	if o.Entities <= 0 {
		o.Entities = 3
	}
	if o.Ops <= 0 {
		o.Ops = 4
	}
	if o.Slice == 0 {
		o.Slice = 2 * time.Millisecond
	}
}

// script derives entity e's deterministic operation list.
func (o MutexOpts) script(e int) []op {
	rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(e)))
	ops := make([]op, 0, o.Ops)
	for i := 0; i < o.Ops; i++ {
		hold := time.Duration(50+rng.Intn(1500)) * time.Microsecond
		wait := time.Duration(rng.Intn(2000)) * time.Microsecond
		k := opLock
		switch r := rng.Intn(10); {
		case r < 5:
			k = opLock
		case r < 6:
			k = opTry
		case r < 8 && o.Cancel:
			k = opCancel
		case r < 9 && o.CloseMid:
			k = opClose
		default:
			k = opThink
		}
		ops = append(ops, op{kind: k, hold: hold, wait: wait})
	}
	return ops
}

// MutexChurn is the 3-entity lock/cancel/close workload from the issue:
// entities run deterministic per-seed scripts of plain, try-, and
// cancellable acquires plus mid-run handle churn, asserting mutual
// exclusion and lock invariants after every operation, and full
// teardown (no registered entities, clean books) at the end.
func MutexChurn(o MutexOpts) check.Workload {
	o.defaults()
	var m *scl.Mutex
	return check.Workload{
		Name: "mutex-churn",
		Setup: func(s *check.Sched) {
			opts := scl.Options{Slice: o.Slice}
			if o.GC {
				opts.InactiveTimeout = 10 * time.Millisecond
			}
			m = scl.NewMutex(opts)
			held := new(int)
			for e := 0; e < o.Entities; e++ {
				e := e
				script := o.script(e)
				h := m.Register()
				s.Go(fmt.Sprintf("e%d", e), func() {
					runMutexScript(s, m, h, script, held)
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

// runMutexScript executes one entity's scripted ops, asserting mutual
// exclusion via the shared holder counter and the lock's invariants
// after every operation.
func runMutexScript(s *check.Sched, m *scl.Mutex, h *scl.Handle, script []op, held *int) {
	enter := func() {
		*held++
		if *held != 1 {
			s.Failf("mutual exclusion violated: %d holders", *held)
		}
	}
	exit := func() {
		*held--
	}
	for i, o := range script {
		switch o.kind {
		case opLock:
			h.Lock()
			enter()
			check.Sleep(o.hold)
			exit()
			h.Unlock()
		case opTry:
			if h.TryLock() {
				enter()
				check.Sleep(o.hold)
				exit()
				h.Unlock()
			}
		case opCancel:
			ctx, cancel := context.WithCancel(context.Background())
			s.Go("canceller", func() {
				check.Sleep(o.wait)
				cancel()
			})
			if err := h.LockContext(ctx); err == nil {
				enter()
				check.Sleep(o.hold)
				exit()
				h.Unlock()
			}
			cancel()
		case opClose:
			h.Close()
			check.Sleep(o.wait)
			h = m.Register()
		case opThink:
			check.Sleep(o.wait)
		}
		if err := m.CheckInvariants(); err != nil {
			s.Failf("invariants broken after op %d: %v", i, err)
		}
	}
	h.Close()
	if err := m.CheckInvariants(); err != nil {
		s.Failf("invariants broken after close: %v", err)
	}
}

// ContendOpts configures the opportunity-imbalance workload.
type ContendOpts struct {
	Entities int
	Ops      int
	Slice    time.Duration
	Hold     time.Duration // fixed critical-section length
	Seed     int64
	// Siblings adds that many sibling handles (Handle.Sibling) of the
	// first entity, each running the same loop: the workload is then
	// "mutex-siblings".
	Siblings int
	// Think is an off-lock pause after every second acquisition, so a
	// handle also meets the lock idle inside its entity's slice.
	Think time.Duration
}

// MutexContend is the opportunity-imbalance workload: equal-weight
// entities contend with plain (uncancellable) acquires and a fixed
// hold, and every single acquisition asserts the paper's bound — with N
// equal entities, a waiter's delay is bounded by the others' slices,
// their slice-overrunning critical sections, and one ban penalty
// (penalty <= (N-1) x window at equal weights, paper §4.2). The factor
// below is deliberately generous (it must hold on EVERY schedule,
// including adversarial ones); it still catches unbounded starvation
// and lost wakeups, which show up as waits growing with the op count
// or as deadlocks. Lock invariants are checked after every operation
// and full teardown once every handle has closed.
//
// With Siblings, the first entity locks through several handles: the
// slice owner's fast release then races intra-class handoffs to a queued
// sibling and the slice-end transfer to other entities' waiters, and
// CheckInvariants checks the waiters bit exactly (set only while a waiter
// of the owner's entity is queued).
func MutexContend(o ContendOpts) check.Workload {
	if o.Entities <= 0 {
		o.Entities = 3
	}
	if o.Ops <= 0 {
		o.Ops = 4
	}
	if o.Slice == 0 {
		o.Slice = 2 * time.Millisecond
	}
	if o.Hold == 0 {
		o.Hold = time.Millisecond
	}
	name := "mutex-contend"
	if o.Siblings > 0 {
		name = "mutex-siblings"
	}
	bound := time.Duration(6*(o.Entities+o.Siblings)) * (o.Slice + o.Hold)
	var m *scl.Mutex
	return check.Workload{
		Name: name,
		Setup: func(s *check.Sched) {
			m = scl.NewMutex(scl.Options{Slice: o.Slice})
			held := new(int)
			var hs []*scl.Handle
			for e := 0; e < o.Entities; e++ {
				hs = append(hs, m.Register())
			}
			for i := 0; i < o.Siblings; i++ {
				hs = append(hs, hs[0].Sibling())
			}
			for i, h := range hs {
				s.Go(fmt.Sprintf("h%d", i), func() {
					for op := 0; op < o.Ops; op++ {
						t0, _ := check.Now()
						h.Lock()
						t1, _ := check.Now()
						if wait := t1 - t0; wait > bound {
							s.Failf("opportunity-imbalance bound exceeded: op %d waited %v (bound %v)", op, wait, bound)
						}
						*held++
						if *held != 1 {
							s.Failf("mutual exclusion violated: %d holders", *held)
						}
						check.Sleep(o.Hold)
						*held--
						h.Unlock()
						if err := m.CheckInvariants(); err != nil {
							s.Failf("invariants broken after op %d: %v", op, err)
						}
						if op%2 == 1 && o.Think > 0 {
							check.Sleep(o.Think)
						}
					}
					h.Close()
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

// CombineOpts configures the Handle.Do combining workload.
type CombineOpts struct {
	// Entities is the number of concurrent entities (default 3).
	Entities int
	// Ops is the number of scripted critical sections per entity
	// (default 3).
	Ops int
	// Slice is the lock slice (default 2ms).
	Slice time.Duration
	// Seed derives each entity's deterministic op script.
	Seed int64
}

// MutexCombine targets the combining protocol (Handle.Do, combine.go):
// entities run a deterministic mix of Do calls and plain acquires, so
// published critical sections race classic queueing, release-time
// drains, ban rejections and the idle wake-walk across every explored
// interleaving of the mu.combine.* decision sites. On every schedule it
// asserts:
//
//   - mutual exclusion: combined closures and plain critical sections
//     share one holder counter, so a drain overlapping any hold fails;
//   - exactly-once: each closure bumps its own (entity, op) cell,
//     caught double-executed (combiner AND self-serve) or dropped at
//     Validate;
//   - conservation: full lock + accountant invariants after every op
//     (combined usage must land on the publishing entity's books);
//   - the opportunity-imbalance bound on every Do's total latency, so
//     a lost wakeup that the deadlock detector cannot see (a publisher
//     parked while others make progress) still fails the schedule.
func MutexCombine(o CombineOpts) check.Workload {
	if o.Entities <= 0 {
		o.Entities = 3
	}
	if o.Ops <= 0 {
		o.Ops = 3
	}
	if o.Slice == 0 {
		o.Slice = 2 * time.Millisecond
	}
	// Holds reach past the slice so drains interleave with bans; the
	// latency bound mirrors MutexContend's, widened by the max hold.
	maxHold := 3 * time.Millisecond
	bound := time.Duration(6*o.Entities)*(o.Slice+maxHold) + maxHold
	var m *scl.Mutex
	executed := make([][]int, o.Entities)
	return check.Workload{
		Name: "mutex-combine",
		Setup: func(s *check.Sched) {
			m = scl.NewMutex(scl.Options{Slice: o.Slice})
			held := new(int)
			for e := 0; e < o.Entities; e++ {
				e := e
				executed[e] = make([]int, o.Ops)
				rng := rand.New(rand.NewSource(o.Seed*1000033 + int64(e)))
				h := m.Register()
				s.Go(fmt.Sprintf("e%d", e), func() {
					for i := 0; i < o.Ops; i++ {
						i := i
						hold := time.Duration(50+rng.Intn(int(maxHold/time.Microsecond)-50)) * time.Microsecond
						think := time.Duration(rng.Intn(1500)) * time.Microsecond
						section := func() {
							*held++
							if *held != 1 {
								s.Failf("mutual exclusion violated: %d holders", *held)
							}
							check.Sleep(hold)
							*held--
							executed[e][i]++
						}
						t0, _ := check.Now()
						if rng.Intn(3) == 0 {
							h.Lock()
							section()
							h.Unlock()
						} else {
							h.Do(section)
						}
						t1, _ := check.Now()
						if wait := t1 - t0; wait > bound {
							s.Failf("combine latency bound exceeded: op %d took %v (bound %v)", i, wait, bound)
						}
						if err := m.CheckInvariants(); err != nil {
							s.Failf("invariants broken after op %d: %v", i, err)
						}
						check.Sleep(think)
					}
					h.Close()
					if err := m.CheckInvariants(); err != nil {
						s.Failf("invariants broken after close: %v", err)
					}
				})
			}
		},
		Validate: func() error {
			if err := m.CheckInvariants(); err != nil {
				return err
			}
			for e, ops := range executed {
				for i, n := range ops {
					if n != 1 {
						return fmt.Errorf("entity %d op %d executed %d times (want exactly once)", e, i, n)
					}
				}
			}
			if n := m.Entities(); n != 0 {
				return fmt.Errorf("%d entities still registered after all handles closed", n)
			}
			return nil
		},
	}
}

// RWShardOpts configures the distributed-read-indicator sweep workload.
type RWShardOpts struct {
	Readers int
	Writers int
	Ops     int
	Period  time.Duration
	Seed    int64
}

// RWShardSweep targets the RW-SCL's sharded read indicator: readers
// hammer the fast RLock/RUnlock paths (each publish/revalidate and shard
// pick is a decision point the explorer reorders) while writers force
// phase flips whose write-phase drain sweeps the shards. The workload
// asserts, on every schedule, that no reader is lost or double-counted
// across a sweep:
//
//   - reader/writer exclusion via shared counters, as in RWChurn;
//   - conservation: Stats().ReaderOps (slow ops + fast shard ops) must
//     equal the readers' own acquisition tally, so a waiter granted
//     twice or a fast +1 dropped by the sweep is caught exactly;
//   - drain: after every scripted op completes, a final write acquire
//     must be granted. The drain sweep admits a writer only when the
//     shard sum is exactly zero, so a leaked +1 (double-counted reader)
//     parks this probe forever and surfaces as a checker deadlock, and
//     a lost reader (sum < 0) fails CheckInvariants.
func RWShardSweep(o RWShardOpts) check.Workload {
	if o.Readers <= 0 {
		o.Readers = 3
	}
	if o.Writers <= 0 {
		o.Writers = 1
	}
	if o.Ops <= 0 {
		o.Ops = 3
	}
	if o.Period == 0 {
		o.Period = 2 * time.Millisecond
	}
	var l *scl.RWLock
	acquiredR := new(int)
	acquiredW := new(int)
	return check.Workload{
		Name: "rw-shard",
		Setup: func(s *check.Sched) {
			l = scl.NewRWLock(1, 1, o.Period)
			*acquiredR, *acquiredW = 0, 0
			readers := new(int)
			writers := new(int)
			finished := new(int)
			total := o.Readers + o.Writers
			checkState := func() {
				if *writers > 1 {
					s.Failf("%d writers active", *writers)
				}
				if *writers == 1 && *readers > 0 {
					s.Failf("writer active with %d readers", *readers)
				}
			}
			spawn := func(name string, e int, write bool) {
				rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(e)))
				s.Go(name, func() {
					for i := 0; i < o.Ops; i++ {
						hold := time.Duration(20+rng.Intn(400)) * time.Microsecond
						think := time.Duration(rng.Intn(800)) * time.Microsecond
						if write {
							l.WLock()
							*writers++
							*acquiredW++
						} else {
							l.RLock()
							*readers++
							*acquiredR++
						}
						checkState()
						check.Sleep(hold)
						if write {
							*writers--
							l.WUnlock()
						} else {
							*readers--
							l.RUnlock()
						}
						if err := l.CheckInvariants(); err != nil {
							s.Failf("invariants broken after op %d: %v", i, err)
						}
						check.Sleep(think)
					}
					*finished++
				})
			}
			for r := 0; r < o.Readers; r++ {
				spawn(fmt.Sprintf("r%d", r), r, false)
			}
			for w := 0; w < o.Writers; w++ {
				spawn(fmt.Sprintf("w%d", w), o.Readers+w, true)
			}
			s.Go("drain", func() {
				check.WaitOrDone("join", func() bool { return *finished == total }, nil)
				l.WLock()
				*writers++
				*acquiredW++
				checkState()
				*writers--
				l.WUnlock()
			})
		},
		Validate: func() error {
			if err := l.CheckInvariants(); err != nil {
				return err
			}
			s := l.Stats()
			if s.ReaderOps != int64(*acquiredR) {
				return fmt.Errorf("reader op conservation broken: lock counted %d, readers acquired %d",
					s.ReaderOps, *acquiredR)
			}
			if s.WriterOps != int64(*acquiredW) {
				return fmt.Errorf("writer op conservation broken: lock counted %d, writers acquired %d",
					s.WriterOps, *acquiredW)
			}
			return nil
		},
	}
}

// RWOpts configures the RWLock churn workload.
type RWOpts struct {
	Readers int
	Writers int
	Ops     int
	Period  time.Duration
	Seed    int64
	Cancel  bool
}

// RWChurn drives the RW-SCL: readers and writers run deterministic
// scripts of plain and cancellable acquires, asserting the
// reader/writer exclusion protocol and the lock's invariants after
// every operation.
func RWChurn(o RWOpts) check.Workload {
	if o.Readers <= 0 {
		o.Readers = 2
	}
	if o.Writers <= 0 {
		o.Writers = 1
	}
	if o.Ops <= 0 {
		o.Ops = 4
	}
	if o.Period == 0 {
		o.Period = 2 * time.Millisecond
	}
	var l *scl.RWLock
	return check.Workload{
		Name: "rw-churn",
		Setup: func(s *check.Sched) {
			l = scl.NewRWLock(1, 1, o.Period)
			readers := new(int)
			writers := new(int)
			checkState := func() {
				if *writers > 1 {
					s.Failf("%d writers active", *writers)
				}
				if *writers == 1 && *readers > 0 {
					s.Failf("writer active with %d readers", *readers)
				}
			}
			spawn := func(name string, e int, write bool) {
				rng := rand.New(rand.NewSource(o.Seed*999983 + int64(e)))
				s.Go(name, func() {
					for i := 0; i < o.Ops; i++ {
						hold := time.Duration(50+rng.Intn(1000)) * time.Microsecond
						think := time.Duration(rng.Intn(1500)) * time.Microsecond
						cancelAt := time.Duration(rng.Intn(1500)) * time.Microsecond
						useCancel := o.Cancel && rng.Intn(4) == 0
						acquired := true
						if useCancel {
							ctx, cancel := context.WithCancel(context.Background())
							s.Go("canceller", func() {
								check.Sleep(cancelAt)
								cancel()
							})
							var err error
							if write {
								err = l.WLockContext(ctx)
							} else {
								err = l.RLockContext(ctx)
							}
							acquired = err == nil
							cancel()
						} else if write {
							l.WLock()
						} else {
							l.RLock()
						}
						if acquired {
							if write {
								*writers++
							} else {
								*readers++
							}
							checkState()
							check.Sleep(hold)
							if write {
								*writers--
								l.WUnlock()
							} else {
								*readers--
								l.RUnlock()
							}
						}
						if err := l.CheckInvariants(); err != nil {
							s.Failf("invariants broken after op %d: %v", i, err)
						}
						check.Sleep(think)
					}
				})
			}
			for r := 0; r < o.Readers; r++ {
				spawn(fmt.Sprintf("r%d", r), r, false)
			}
			for w := 0; w < o.Writers; w++ {
				spawn(fmt.Sprintf("w%d", w), o.Readers+w, true)
			}
		},
		Validate: func() error { return l.CheckInvariants() },
	}
}

// RWWritersOpts configures the writer-only RWLock workload.
type RWWritersOpts struct {
	// Do routes the second writer's sections through RWLock.Do, pulling
	// the writer-side combining protocol into the explored schedules.
	Do bool
}

// RWWriters drives two writers and no readers through zero-length
// critical sections, so every schedule stays inside the write phase
// where the lone-writer fast path (fastWLock/fastWUnlock) races the
// slow acquire and release under the lock's mutex. The section is a
// check.Point, a decision site of its own, so the explorer can run the
// other writer's whole fast acquire and release inside a hold. On every
// schedule it asserts writer exclusion, exactly-once execution of each
// section, the lock's invariants after every operation, and writer-op
// conservation; a writer whose grant is lost parks forever and
// surfaces as a checker deadlock.
func RWWriters(o RWWritersOpts) check.Workload {
	const ops = 3 // critical sections per writer
	name := "rw-writers"
	if o.Do {
		name = "rw-writers-do"
	}
	var l *scl.RWLock
	executed := make([][]int, 2)
	return check.Workload{
		Name: name,
		Setup: func(s *check.Sched) {
			l = scl.NewRWLock(1, 1, 2*time.Millisecond)
			writers := new(int)
			for w := range executed {
				w := w
				executed[w] = make([]int, ops)
				s.Go(fmt.Sprintf("w%d", w), func() {
					for i := 0; i < ops; i++ {
						i := i
						section := func() {
							*writers++
							if *writers != 1 {
								s.Failf("%d writers active", *writers)
							}
							check.Point("rw.writers.cs")
							*writers--
							executed[w][i]++
						}
						if o.Do && w == 1 {
							l.Do(section)
						} else {
							l.WLock()
							section()
							l.WUnlock()
						}
						if err := l.CheckInvariants(); err != nil {
							s.Failf("invariants broken after op %d: %v", i, err)
						}
					}
				})
			}
		},
		Validate: func() error {
			if err := l.CheckInvariants(); err != nil {
				return err
			}
			for w, ops := range executed {
				for i, n := range ops {
					if n != 1 {
						return fmt.Errorf("writer %d op %d executed %d times (want exactly once)", w, i, n)
					}
				}
			}
			if n, want := l.Stats().WriterOps, int64(2*ops); n != want {
				return fmt.Errorf("writer op conservation broken: lock counted %d, want %d", n, want)
			}
			return nil
		},
	}
}

// ManagerOpts configures the lock-table churn workload.
type ManagerOpts struct {
	// Tenants is the number of concurrent tenants (default 3).
	Tenants int
	// Keys is the size of the key space tenants pick from (default 4,
	// spread over 2 stripes so stripe handoffs are explored).
	Keys int
	// Ops is the number of scripted operations per tenant (default 4).
	Ops int
	// Slice is the per-key lock slice (default 2ms).
	Slice time.Duration
	// Seed derives each tenant's deterministic op script.
	Seed int64
	// Cancel mixes in cancellable acquires abandoned mid-flight.
	Cancel bool
	// CloseMid mixes in mid-run tenant Close/re-register churn.
	CloseMid bool
	// GC enables both manager GCs with tight thresholds, pulling lock
	// reap and tenant expiry into the explored schedules.
	GC bool
}

func (o *ManagerOpts) defaults() {
	if o.Tenants <= 0 {
		o.Tenants = 3
	}
	if o.Keys <= 0 {
		o.Keys = 4
	}
	if o.Ops <= 0 {
		o.Ops = 4
	}
	if o.Slice == 0 {
		o.Slice = 2 * time.Millisecond
	}
}

// ManagerChurn drives a striped lock table through multi-key tenant
// churn: tenants run deterministic scripts of plain and cancellable
// acquires over a small key space (two stripes, so the explorer
// interleaves the stripe decision sites mgr.stripe/mgr.materialize/
// mgr.release/mgr.reap), optionally closing and re-registering mid-run.
// On every schedule it asserts per-key mutual exclusion via shared
// holder counters, full manager invariants after each operation
// (stripe books conservation, in-flight agreement between the key and
// tenant views), and clean teardown: once every tenant has closed, no
// identity survives in any stripe's books.
func ManagerChurn(o ManagerOpts) check.Workload {
	o.defaults()
	var m *scl.Manager
	return check.Workload{
		Name: "manager-churn",
		Setup: func(s *check.Sched) {
			mo := scl.ManagerOptions{Stripes: 2, Lock: scl.Options{Slice: o.Slice}}
			if o.GC {
				mo.LockIdle = 5 * time.Millisecond
				mo.TenantIdle = 10 * time.Millisecond
			}
			m = scl.NewManager(mo)
			held := make([]int, o.Keys)
			for e := 0; e < o.Tenants; e++ {
				e := e
				script := o.script(e) // reuse the mutex op mix
				rng := rand.New(rand.NewSource(o.Seed*7901 + int64(e)))
				keys := make([]int, len(script))
				for i := range keys {
					keys[i] = rng.Intn(o.Keys)
				}
				tn := m.Tenant(fmt.Sprintf("t%d", e), 1024)
				s.Go(fmt.Sprintf("t%d", e), func() {
					runManagerScript(s, m, &tn, script, keys, held)
				})
			}
		},
		Validate: func() error {
			if err := m.CheckInvariants(); err != nil {
				return err
			}
			if st := m.Stats(); st.Identities != 0 {
				return fmt.Errorf("%d tenant identities survive after every tenant closed", st.Identities)
			}
			return nil
		},
	}
}

// script reuses the MutexOpts op mix for a ManagerOpts (same kinds,
// same distribution — opTry maps to a plain acquire, the Manager has no
// TryLock).
func (o ManagerOpts) script(e int) []op {
	mo := MutexOpts{Ops: o.Ops, Seed: o.Seed, Cancel: o.Cancel, CloseMid: o.CloseMid}
	mo.defaults()
	return mo.script(e)
}

// runManagerScript executes one tenant's scripted multi-key ops.
func runManagerScript(s *check.Sched, m *scl.Manager, tn **scl.Tenant, script []op, keys []int, held []int) {
	for i, o := range script {
		key := fmt.Sprintf("k%d", keys[i])
		ki := keys[i]
		switch o.kind {
		case opLock, opTry:
			g := (*tn).Lock(key)
			held[ki]++
			if held[ki] != 1 {
				s.Failf("mutual exclusion violated on %s: %d holders", key, held[ki])
			}
			check.Sleep(o.hold)
			held[ki]--
			g.Unlock()
		case opCancel:
			ctx, cancel := context.WithCancel(context.Background())
			s.Go("canceller", func() {
				check.Sleep(o.wait)
				cancel()
			})
			if g, err := (*tn).LockContext(ctx, key); err == nil {
				held[ki]++
				if held[ki] != 1 {
					s.Failf("mutual exclusion violated on %s: %d holders", key, held[ki])
				}
				check.Sleep(o.hold)
				held[ki]--
				g.Unlock()
			}
			cancel()
		case opClose:
			name := (*tn).Name()
			(*tn).Close()
			check.Sleep(o.wait)
			*tn = m.Tenant(name, 1024)
		case opThink:
			check.Sleep(o.wait)
		}
		if err := m.CheckInvariants(); err != nil {
			s.Failf("invariants broken after op %d: %v", i, err)
		}
	}
	(*tn).Close()
	if err := m.CheckInvariants(); err != nil {
		s.Failf("invariants broken after close: %v", err)
	}
}
