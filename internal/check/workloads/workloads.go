// Package workloads defines the named explorable workloads the
// deterministic checker (internal/check) runs against the real scl
// locks. Each workload is a seeded generator of entity scripts plus a
// lock configuration, a scenario.Spec, and runs on internal/scenario's
// driver: the one op loop the scenario corpus also runs through. On
// every explored schedule the driver asserts mutual exclusion (per key
// on a Manager), exactly one run of every granted critical section, the
// lock's invariants after every op, and a clean teardown: no entity or
// tenant identity left, and on an RWLock op conservation and a final
// write acquire that must be granted. A lost grant is the scheduler's
// deadlock detector. Contend and combine workloads also set the
// opportunity-imbalance wait bound. The package is shared by `go test
// ./internal/check` and the cmd/sclcheck CLI.
package workloads

import (
	"fmt"
	"math/rand"
	"time"

	"scl"
	"scl/internal/check"
	"scl/internal/scenario"
	"scl/sim"
)

// named lists every workload the checker's tools address by name
// (`sclcheck -workload`, `go test ./internal/check -check.workload`),
// each in its default configuration. A kscl-* or manager-kscl workload
// runs k-SCL locks: a zero-length slice, so no fast path and no slice
// timer, and every release is a slice boundary.
var named = []struct {
	name  string
	build func() check.Workload
}{
	{"mutex-churn", func() check.Workload { return MutexChurn(MutexOpts{Seed: 1, Cancel: true, CloseMid: true}) }},
	{"mutex-contend", func() check.Workload { return MutexContend(ContendOpts{Seed: 1}) }},
	{"mutex-combine", func() check.Workload { return MutexCombine(CombineOpts{Seed: 1}) }},
	{"mutex-siblings", func() check.Workload { return MutexContend(siblingOpts(2 * time.Millisecond)) }},
	{"mutex-compose", func() check.Workload { return MutexChurn(composeOpts(2 * time.Millisecond)) }},
	{"kscl-churn", func() check.Workload {
		return MutexChurn(MutexOpts{Slice: -1, Seed: 1, Cancel: true, CloseMid: true, CloseHeld: true, GC: true})
	}},
	{"kscl-contend", func() check.Workload { return MutexContend(ContendOpts{Slice: -1, Seed: 1}) }},
	{"kscl-siblings", func() check.Workload { return MutexContend(siblingOpts(-1)) }},
	{"kscl-combine", func() check.Workload { return MutexCombine(CombineOpts{Slice: -1, Seed: 1}) }},
	{"kscl-compose", func() check.Workload { return MutexChurn(composeOpts(-1)) }},
	{"rw-churn", func() check.Workload { return RWChurn(RWOpts{Seed: 1, Cancel: true}) }},
	{"rw-shard", func() check.Workload { return RWShardSweep(RWShardOpts{Seed: 1}) }},
	{"rw-writers", func() check.Workload { return RWWriters(RWWritersOpts{}) }},
	{"rw-writers-do", func() check.Workload { return RWWriters(RWWritersOpts{Do: true}) }},
	{"manager-churn", func() check.Workload {
		return ManagerChurn(ManagerOpts{Slice: 2 * time.Millisecond, Seed: 1, Cancel: true, CloseMid: true, GC: true})
	}},
	// The Manager's default per-key locks: a zero Lock.Slice makes k-SCL keys.
	{"manager-kscl", func() check.Workload {
		return ManagerChurn(ManagerOpts{Seed: 1, Cancel: true, CloseMid: true, GC: true})
	}},
}

// Names returns the names Named accepts, in a stable order.
func Names() []string {
	out := make([]string, len(named))
	for i, n := range named {
		out[i] = n.name
	}
	return out
}

// Named returns the workload called name in its default configuration,
// carrying that name, or false if no workload has it.
func Named(name string) (check.Workload, bool) {
	for _, n := range named {
		if n.name == name {
			w := n.build()
			w.Name = name
			return w, true
		}
	}
	return check.Workload{}, false
}

// siblingOpts configures the *-siblings workloads: one entity locking
// through two sibling handles beside one foreign entity, with holds short
// enough to fit several into a 2ms slice.
func siblingOpts(slice time.Duration) ContendOpts {
	return ContendOpts{Entities: 2, Siblings: 1, Slice: slice, Hold: 500 * time.Microsecond, Think: 500 * time.Microsecond}
}

// composeOpts configures the *-compose workloads: every Handle operation
// in one seeded mix. Lock, TryLock, cancellable acquires and Do race
// Close and close-while-held (ghost releases), a sibling handle shares
// the first entity, the inactive GC reaps, and the tracer is removed and
// reinstalled around every think. Seed 10 is the first whose scripts
// hold every op kind and a close-while-held on an entity without
// siblings, so every schedule runs a ghost release
// (TestComposeCoversEveryOp).
func composeOpts(slice time.Duration) MutexOpts {
	return MutexOpts{Slice: slice, Ops: 5, Seed: 10, Cancel: true, CloseMid: true, CloseHeld: true, GC: true, Compose: true}
}

// entity is the script entity <prefix><i> running ops.
func entity(prefix string, i int, ops []sim.ScriptOp) sim.ScriptEntity {
	return sim.ScriptEntity{Name: fmt.Sprintf("%s%d", prefix, i), Ops: ops}
}

// siblingOf maps entity i to itself below n, and to entity 0 from n on:
// the entities past n lock through sibling handles of the first.
func siblingOf(i, n int) int {
	if i < n {
		return i
	}
	return 0
}

func hold(kind sim.ScriptOpKind, d time.Duration) sim.ScriptOp {
	return sim.ScriptOp{Kind: kind, Hold: d}
}
func think(d time.Duration) sim.ScriptOp { return sim.ScriptOp{Kind: sim.OpThink, Think: d} }

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
	// CloseHeld turns half of the CloseMid closes into closes while the
	// lock is held, so the release is a ghost release.
	CloseHeld bool
	// GC enables the inactive-entity GC with a tight threshold, pulling
	// the reap paths into the explored schedules.
	GC bool
	// Compose turns half of the plain acquires into Handle.Do calls, adds
	// an entity locking through a sibling handle of the first (until it
	// first closes), and removes and reinstalls the lock's tracer around
	// every think.
	Compose bool
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

// siblings is the number of entities locking through a sibling handle.
func (o MutexOpts) siblings() int {
	if o.Compose {
		return 1
	}
	return 0
}

// script derives entity e's deterministic op script. key, if non-nil,
// draws the lock-table key of each scripted operation.
func (o MutexOpts) script(e int, key func() int) []sim.ScriptOp {
	rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(e)))
	var ops []sim.ScriptOp
	for i := 0; i < o.Ops; i++ {
		held := time.Duration(50+rng.Intn(1500)) * time.Microsecond
		wait := time.Duration(rng.Intn(2000)) * time.Microsecond
		op := []sim.ScriptOp{think(wait)}
		switch r := rng.Intn(10); {
		case r < 5:
			op[0] = hold(sim.OpAcquire, held)
			if o.Compose && rng.Intn(2) == 0 {
				op[0].Kind = sim.OpDo
			}
		case r < 6:
			op[0] = hold(sim.OpTry, held)
		case r < 8 && o.Cancel:
			op[0] = sim.ScriptOp{Kind: sim.OpAcquireTimeout, Hold: held, Timeout: wait}
		case r < 9 && o.CloseMid:
			op = []sim.ScriptOp{{Kind: sim.OpClose}, think(wait)}
			if o.CloseHeld && rng.Intn(2) == 0 {
				op = []sim.ScriptOp{hold(sim.OpCloseHeld, held)}
			}
		}
		if key != nil {
			op[0].Key = key()
		}
		ops = append(ops, op...)
	}
	return ops
}

// MutexChurn is the 3-entity lock/cancel/close workload: entities run
// deterministic per-seed scripts of plain, try- and cancellable acquires
// plus mid-run handle churn; CloseHeld adds ghost releases, GC reaps,
// and Compose Do calls, a sibling handle and tracer swaps.
func MutexChurn(o MutexOpts) check.Workload {
	o.defaults()
	s := scenario.Spec{Mutex: &scenario.MutexSpec{Options: scl.Options{Slice: o.Slice}, SwapTracer: o.Compose}}
	if o.GC {
		s.Mutex.Options.InactiveTimeout = 10 * time.Millisecond
	}
	for e := 0; e < o.Entities+o.siblings(); e++ {
		s.Entities = append(s.Entities, entity("e", e, o.script(e, nil)))
		s.Mutex.SiblingOf = append(s.Mutex.SiblingOf, siblingOf(e, o.Entities))
	}
	return scenario.Explorable("mutex-churn", s)
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
// or as deadlocks.
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
	var ops []sim.ScriptOp
	for op := 0; op < o.Ops; op++ {
		ops = append(ops, hold(sim.OpAcquire, o.Hold))
		if op%2 == 1 && o.Think > 0 {
			ops = append(ops, think(o.Think))
		}
	}
	s := scenario.Spec{
		Mutex:     &scenario.MutexSpec{Options: scl.Options{Slice: o.Slice}},
		WaitBound: time.Duration(6*(o.Entities+o.Siblings)) * (o.Slice + o.Hold),
	}
	for i := 0; i < o.Entities+o.Siblings; i++ {
		s.Entities = append(s.Entities, entity("h", i, ops))
		s.Mutex.SiblingOf = append(s.Mutex.SiblingOf, siblingOf(i, o.Entities))
	}
	return scenario.Explorable(name, s)
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
// interleaving of the mu.combine.* decision sites. Combined closures and
// plain sections share one exclusion check, each closure must run
// exactly once, combined usage must land on the publishing entity's
// books (the invariants after every op), and every Do's total latency
// is held to the opportunity-imbalance bound, so a lost wakeup the
// deadlock detector cannot see (a publisher parked while others make
// progress) still fails the schedule.
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
	s := scenario.Spec{
		Mutex:     &scenario.MutexSpec{Options: scl.Options{Slice: o.Slice}},
		WaitBound: time.Duration(6*o.Entities)*(o.Slice+maxHold) + maxHold,
	}
	for e := 0; e < o.Entities; e++ {
		rng := rand.New(rand.NewSource(o.Seed*1000033 + int64(e)))
		var ops []sim.ScriptOp
		for i := 0; i < o.Ops; i++ {
			held := time.Duration(50+rng.Intn(int(maxHold/time.Microsecond)-50)) * time.Microsecond
			pause := time.Duration(rng.Intn(1500)) * time.Microsecond
			kind := sim.OpDo
			if rng.Intn(3) == 0 {
				kind = sim.OpAcquire
			}
			ops = append(ops, hold(kind, held), think(pause))
		}
		s.Entities = append(s.Entities, entity("e", e, ops))
	}
	return scenario.Explorable("mutex-combine", s)
}

// rwSpec is an RWLock (period 0: 2ms) with readers r0.. and writers
// w0.., entity e running script(e).
func rwSpec(readers, writers int, period time.Duration, script func(e int) []sim.ScriptOp) scenario.Spec {
	s := scenario.Spec{RW: &scenario.RWSpec{Period: period}}
	for e := 0; e < readers+writers; e++ {
		write := e >= readers
		if write {
			s.Entities = append(s.Entities, entity("w", e-readers, script(e)))
		} else {
			s.Entities = append(s.Entities, entity("r", e, script(e)))
		}
		s.RW.Writer = append(s.RW.Writer, write)
	}
	return s
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
// phase flips whose write-phase drain sweeps the shards. The driver's
// RW teardown shows that no reader is lost or double-counted across a
// sweep: Stats().ReaderOps (slow ops plus fast shard ops) must equal the
// reader grants, and the final write acquire parks forever on a leaked
// +1, while a lost reader (sum < 0) fails CheckInvariants.
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
	return scenario.Explorable("rw-shard", rwSpec(o.Readers, o.Writers, o.Period, func(e int) []sim.ScriptOp {
		rng := rand.New(rand.NewSource(o.Seed*1000003 + int64(e)))
		var ops []sim.ScriptOp
		for i := 0; i < o.Ops; i++ {
			held := time.Duration(20+rng.Intn(400)) * time.Microsecond
			ops = append(ops, hold(sim.OpAcquire, held), think(time.Duration(rng.Intn(800))*time.Microsecond))
		}
		return ops
	}))
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
// scripts of plain and cancellable acquires.
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
	return scenario.Explorable("rw-churn", rwSpec(o.Readers, o.Writers, o.Period, func(e int) []sim.ScriptOp {
		rng := rand.New(rand.NewSource(o.Seed*999983 + int64(e)))
		var ops []sim.ScriptOp
		for i := 0; i < o.Ops; i++ {
			held := time.Duration(50+rng.Intn(1000)) * time.Microsecond
			pause := time.Duration(rng.Intn(1500)) * time.Microsecond
			op := sim.ScriptOp{Kind: sim.OpAcquire, Hold: held, Timeout: time.Duration(rng.Intn(1500)) * time.Microsecond}
			if o.Cancel && rng.Intn(4) == 0 {
				op.Kind = sim.OpAcquireTimeout
			}
			ops = append(ops, op, think(pause))
		}
		return ops
	}))
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
// slow acquire and release under the lock's mutex. A zero hold is still
// a decision site inside the section, so the explorer can run the other
// writer's whole fast acquire and release inside a hold. A writer whose
// grant is lost parks forever and surfaces as a checker deadlock.
func RWWriters(o RWWritersOpts) check.Workload {
	name := "rw-writers"
	if o.Do {
		name = "rw-writers-do"
	}
	return scenario.Explorable(name, rwSpec(0, 2, 0, func(e int) []sim.ScriptOp {
		kind := sim.OpAcquire
		if o.Do && e == 1 {
			kind = sim.OpDo
		}
		return []sim.ScriptOp{{Kind: kind}, {Kind: kind}, {Kind: kind}}
	}))
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
	// Slice is ManagerOptions.Lock.Slice, the per-key lock slice; zero
	// keeps the Manager's default, k-SCL keys.
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

// ManagerChurn drives a striped lock table through multi-key tenant
// churn: tenants run MutexChurn's op mix over a small key space (two
// stripes, so the explorer interleaves the stripe decision sites
// mgr.stripe/mgr.materialize/mgr.release/mgr.reap), with a try as a
// plain acquire (the Manager has no TryLock), optionally closing and
// re-registering mid-run. The invariants after every op cover stripe
// books conservation and in-flight agreement between the key and
// tenant views.
func ManagerChurn(o ManagerOpts) check.Workload {
	if o.Tenants <= 0 {
		o.Tenants = 3
	}
	if o.Keys <= 0 {
		o.Keys = 4
	}
	mo := MutexOpts{Ops: o.Ops, Seed: o.Seed, Cancel: o.Cancel, CloseMid: o.CloseMid}
	mo.defaults()
	s := scenario.Spec{Table: &scenario.TableSpec{
		Options: scl.ManagerOptions{Stripes: 2, Lock: scl.Options{Slice: o.Slice}},
		Keys:    o.Keys,
	}}
	if o.GC {
		s.Table.Options.LockIdle = 5 * time.Millisecond
		s.Table.Options.TenantIdle = 10 * time.Millisecond
	}
	for e := 0; e < o.Tenants; e++ {
		rng := rand.New(rand.NewSource(o.Seed*7901 + int64(e)))
		s.Entities = append(s.Entities, entity("t", e, mo.script(e, func() int { return rng.Intn(o.Keys) })))
	}
	return scenario.Explorable("manager-churn", s)
}
