package scenario

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scl"
	"scl/internal/check"
	"scl/sim"
	"scl/trace"
)

// This file is the one interpreter of a compiled script on the real
// locks. The op loop (driver) is written once. Under it sits a lock: a
// Mutex, an RWLock, or the keys of a Manager. Around it sits a runtime:
// the deterministic checker, or goroutines on the real clock. The check
// substrate, the explorer's Workload and the wall substrate are three
// pairings of the two, and all three record the same sim.ScriptResult
// and run the same teardown checks.

// runtime is what the op loop needs of whatever runs the entities.
type runtime interface {
	spawn(name string, fn func())
	sleep(d time.Duration)
	now() time.Duration
	// fail reports a broken guarantee (exclusion, invariants).
	fail(format string, args ...any)
}

// checkRT runs entities as managed goroutines of the deterministic
// checker, on its virtual clock; fail aborts the schedule.
type checkRT struct{ s *check.Sched }

func (r checkRT) spawn(name string, fn func())    { r.s.Go(name, fn) }
func (checkRT) sleep(d time.Duration)             { check.Sleep(d) }
func (checkRT) now() time.Duration                { t, _ := check.Now(); return t }
func (r checkRT) fail(format string, args ...any) { r.s.Failf(format, args...) }

// wallRT runs entities as plain goroutines on the real clock; fail
// keeps the first error and lets the run finish.
type wallRT struct {
	start time.Time
	wg    sync.WaitGroup
	mu    sync.Mutex // guards err
	err   error
}

func (r *wallRT) spawn(_ string, fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

func (*wallRT) sleep(d time.Duration) { time.Sleep(d) }
func (r *wallRT) now() time.Duration  { return time.Since(r.start) }

func (r *wallRT) fail(format string, args ...any) {
	r.mu.Lock()
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.mu.Unlock()
}

// wait waits up to d for every spawned goroutine and returns the first
// failure. A timeout is reported as a lost grant: some entity never
// completed its script.
func (r *wallRT) wait(d time.Duration) error {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return r.err
	case <-time.After(d):
		return fmt.Errorf("wall run stalled: entities still blocked after %v (lost grant?)", d)
	}
}

// lock is the real lock under a script, addressed by entity index.
type lock interface {
	// acquire takes the lock for entity i, registering the entity first
	// if it has no registration. A nil ctx is an uncancellable acquire.
	acquire(ctx context.Context, i int) error
	release(i int)
	// do runs fn as entity i's combined critical section.
	do(i int, fn func())
	// close retires entity i's registration, if it has one; its next
	// acquire registers it afresh.
	close(i int)
	// enter and exit bracket entity i's critical section; enter reports
	// a second holder the lock should have excluded.
	enter(i int) error
	exit(i int)
	// check is the lock's CheckInvariants.
	check() error
	// teardown checks the lock once every entity has finished and adds
	// what only the lock saw (bans) to r.
	teardown(r *sim.ScriptResult) error
}

// driver is the op loop: it runs each scripted entity against a lock on
// a runtime and records the grants, timeouts and holds it observes.
type driver struct {
	rt   runtime
	lk   lock
	ents []sim.ScriptEntity
	// eachOp checks the lock's invariants after every op.
	eachOp bool
	mu     sync.Mutex // guards res: a combined section runs on the holder's goroutine
	res    sim.ScriptResult
}

// start resets the result and spawns one goroutine per entity.
func (d *driver) start(ents []sim.ScriptEntity, lk lock) {
	n := len(ents)
	d.ents, d.lk = ents, lk
	d.res = sim.ScriptResult{Timeouts: make([]int, n), Bans: make([]int, n), Hold: make([]time.Duration, n)}
	for i, ent := range ents {
		d.rt.spawn(ent.Name, func() { d.entity(i) })
	}
}

// entity runs entity i's script and closes its registration at the end.
// The close is not deferred: a failed checker run unwinds its
// goroutines outside the schedule, where the lock must not run.
func (d *driver) entity(i int) {
	ent := d.ents[i]
	d.rt.sleep(ent.Start)
	for n, op := range ent.Ops {
		switch op.Kind {
		case sim.OpThink:
			d.rt.sleep(op.Think)
		case sim.OpAcquire, sim.OpAcquireTimeout:
			if !d.acquire(i, op) {
				d.mu.Lock()
				d.res.Timeouts[i]++
				d.mu.Unlock()
				break
			}
			d.grant(i)
			d.section(i, op.Hold)
			d.lk.release(i)
		case sim.OpDo:
			// The section may run on another entity's goroutine, but it
			// runs exactly once and is charged to i; the grant lands when
			// Do returns.
			d.lk.do(i, func() { d.section(i, op.Hold) })
			d.grant(i)
		case sim.OpClose:
			d.lk.close(i)
		}
		if d.eachOp {
			if err := d.lk.check(); err != nil {
				d.rt.fail("invariants broken after op %d of %s: %v", n, ent.Name, err)
			}
		}
	}
	d.lk.close(i)
}

// acquire takes the lock for entity i and reports whether it was
// granted. A cancellable acquire gets a canceller that fires after
// op.Timeout.
func (d *driver) acquire(i int, op sim.ScriptOp) bool {
	if op.Kind != sim.OpAcquireTimeout {
		return d.lk.acquire(nil, i) == nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.rt.spawn(d.ents[i].Name+".cancel", func() {
		d.rt.sleep(op.Timeout)
		cancel()
	})
	err := d.lk.acquire(ctx, i)
	cancel()
	return err == nil
}

func (d *driver) grant(i int) {
	d.mu.Lock()
	d.res.Grants = append(d.res.Grants, i)
	d.mu.Unlock()
}

// section is entity i's critical section: exclusion is checked on
// entry and the measured hold is charged to i.
func (d *driver) section(i int, hold time.Duration) {
	if err := d.lk.enter(i); err != nil {
		d.rt.fail("%s: %v", d.ents[i].Name, err)
	}
	at := d.rt.now()
	d.rt.sleep(hold)
	held := d.rt.now() - at
	d.lk.exit(i)
	d.mu.Lock()
	d.res.Hold[i] += held
	d.mu.Unlock()
}

// exclusive counts a holder in and reports any other.
func exclusive(held *atomic.Int32) error {
	if n := held.Add(1); n != 1 {
		return fmt.Errorf("mutual exclusion violated: %d holders", n)
	}
	return nil
}

// mutexLock is one scl.Mutex with a handle per entity; its tracer ring
// is where bans are counted.
type mutexLock struct {
	m     *scl.Mutex
	ring  *trace.Ring
	names []string
	hs    []*scl.Handle
	held  atomic.Int32
}

// newMutexLock builds the Mutex for script s and registers every entity
// before the run, as the simulator does.
func newMutexLock(name string, s *sim.Script) ([]sim.ScriptEntity, lock) {
	l := &mutexLock{ring: trace.NewRing(1 << 14), hs: make([]*scl.Handle, len(s.Entities))}
	l.m = scl.NewMutex(scl.Options{Slice: s.Slice, Tracer: l.ring, Name: name})
	for i, ent := range s.Entities {
		l.names = append(l.names, ent.Name)
		l.handle(i)
	}
	return s.Entities, l
}

func (l *mutexLock) handle(i int) *scl.Handle {
	if l.hs[i] == nil {
		l.hs[i] = l.m.Register().SetName(l.names[i])
	}
	return l.hs[i]
}

func (l *mutexLock) acquire(ctx context.Context, i int) error {
	if ctx == nil {
		l.handle(i).Lock()
		return nil
	}
	return l.handle(i).LockContext(ctx)
}

func (l *mutexLock) release(i int)       { l.hs[i].Unlock() }
func (l *mutexLock) do(i int, fn func()) { l.handle(i).Do(fn) }
func (l *mutexLock) enter(int) error     { return exclusive(&l.held) }
func (l *mutexLock) exit(int)            { l.held.Add(-1) }
func (l *mutexLock) check() error        { return l.m.CheckInvariants() }

func (l *mutexLock) close(i int) {
	if l.hs[i] != nil {
		l.hs[i].Close()
		l.hs[i] = nil
	}
}

func (l *mutexLock) teardown(r *sim.ScriptResult) error {
	if err := l.m.CheckInvariants(); err != nil {
		return err
	}
	if n := l.m.Entities(); n != 0 {
		return fmt.Errorf("%d entities still registered after all handles closed", n)
	}
	for _, ev := range l.ring.Events() {
		if ev.Kind != trace.KindBan {
			continue
		}
		if i := slices.Index(l.names, ev.Name); i >= 0 {
			r.Bans[i]++
		}
	}
	return nil
}

// rwLock is one scl.RWLock; an entity's class is all it has. RW scripts
// carry no cancellable acquire, combined section or close.
type rwLock struct {
	l                *scl.RWLock
	writer           []bool
	readers, writers atomic.Int32
}

func newRWLock(s *sim.RWScript) ([]sim.ScriptEntity, lock) {
	l := &rwLock{l: scl.NewRWLock(cmp.Or(s.ReadWeight, 1), cmp.Or(s.WriteWeight, 1), cmp.Or(s.Period, 2*time.Millisecond))}
	ents := make([]sim.ScriptEntity, len(s.Entities))
	for i, ent := range s.Entities {
		ents[i] = sim.ScriptEntity{Name: ent.Name, Start: ent.Start, Ops: ent.Ops}
		l.writer = append(l.writer, ent.Writer)
	}
	return ents, l
}

func (l *rwLock) acquire(_ context.Context, i int) error {
	if l.writer[i] {
		l.l.WLock()
	} else {
		l.l.RLock()
	}
	return nil
}

func (l *rwLock) release(i int) {
	if l.writer[i] {
		l.l.WUnlock()
	} else {
		l.l.RUnlock()
	}
}

func (l *rwLock) enter(i int) error {
	if !l.writer[i] {
		l.readers.Add(1)
		if l.writers.Load() > 0 {
			return fmt.Errorf("exclusion violated: reader beside a writer")
		}
		return nil
	}
	if w := l.writers.Add(1); w > 1 {
		return fmt.Errorf("exclusion violated: %d writers", w)
	}
	if r := l.readers.Load(); r > 0 {
		return fmt.Errorf("exclusion violated: writer beside %d readers", r)
	}
	return nil
}

func (l *rwLock) exit(i int) {
	if l.writer[i] {
		l.writers.Add(-1)
	} else {
		l.readers.Add(-1)
	}
}

func (l *rwLock) do(int, func()) { panic("scenario: do on an rw lock") }
func (l *rwLock) close(int)      {}
func (l *rwLock) check() error   { return l.l.CheckInvariants() }

func (l *rwLock) teardown(*sim.ScriptResult) error { return l.l.CheckInvariants() }

// tableLock is one scl.Manager: entity i is a tenant locking key
// k<KeyOf[i]>, and exclusion holds per key. A close retires the whole
// tenant identity, the single-lock close/re-register at table scope.
type tableLock struct {
	m     *scl.Manager
	names []string
	keys  []string
	keyOf []int
	tns   []*scl.Tenant
	gs    []*scl.Grant
	held  []atomic.Int32 // per key
}

func newTableLock(c *Compiled) ([]sim.ScriptEntity, lock) {
	n := len(c.Names)
	l := &tableLock{
		m:     scl.NewManager(managerOptions(c.Scenario), scl.WithStripes(2)),
		names: c.Names,
		keyOf: c.KeyOf,
		tns:   make([]*scl.Tenant, n),
		gs:    make([]*scl.Grant, n),
		held:  make([]atomic.Int32, len(c.Keyed)),
	}
	ents := make([]sim.ScriptEntity, n)
	for i := range ents {
		ents[i] = c.Keyed[c.KeyOf[i]].Entities[c.LocalOf[i]]
		l.keys = append(l.keys, fmt.Sprintf("k%d", c.KeyOf[i]))
		l.tenant(i)
	}
	return ents, l
}

// managerOptions is the lock table every substrate that drives a real
// scl.Manager builds for s. The keys run u-SCL on the scenario's slice,
// as the sim's per-key locks do: a zero slice is the sim's 2ms default,
// not the Manager's own zero default (k-SCL keys).
func managerOptions(s *Scenario) scl.ManagerOptions {
	return scl.ManagerOptions{Lock: scl.Options{Slice: cmp.Or(s.Slice, scl.DefaultSlice)}, Name: s.Name}
}

func (l *tableLock) tenant(i int) *scl.Tenant {
	if l.tns[i] == nil {
		l.tns[i] = l.m.Tenant(l.names[i], 1)
	}
	return l.tns[i]
}

func (l *tableLock) acquire(ctx context.Context, i int) (err error) {
	if ctx == nil {
		l.gs[i] = l.tenant(i).Lock(l.keys[i])
		return nil
	}
	l.gs[i], err = l.tenant(i).LockContext(ctx, l.keys[i])
	return err
}

func (l *tableLock) release(i int) { l.gs[i].Unlock() }
func (l *tableLock) exit(i int)    { l.held[l.keyOf[i]].Add(-1) }
func (l *tableLock) check() error  { return l.m.CheckInvariants() }

func (l *tableLock) do(int, func()) { panic("scenario: do on a lock table") }

func (l *tableLock) close(i int) {
	if l.tns[i] != nil {
		l.tns[i].Close()
		l.tns[i] = nil
	}
}

func (l *tableLock) enter(i int) error {
	if err := exclusive(&l.held[l.keyOf[i]]); err != nil {
		return fmt.Errorf("%s: %w", l.keys[i], err)
	}
	return nil
}

func (l *tableLock) teardown(*sim.ScriptResult) error {
	if err := l.m.CheckInvariants(); err != nil {
		return err
	}
	if n := l.m.Stats().Identities; n != 0 {
		return fmt.Errorf("%d tenant identities left after all tenants closed", n)
	}
	return nil
}

// realLock builds the lock a compiled scenario drives on the wall
// substrate and under the explorer. A keyed scenario drives one
// scl.Manager, so the lock-table path itself runs; the check substrate
// instead mirrors the simulator's independent per-key locks
// (runCheckKeyed).
func realLock(c *Compiled) ([]sim.ScriptEntity, lock) {
	switch {
	case c.RW != nil:
		return newRWLock(c.RW)
	case len(c.Keyed) > 0:
		return newTableLock(c)
	}
	return newMutexLock(c.Scenario.Name, c.Mutex)
}

// checkWorkload runs the lock build makes under the checker: Setup
// builds it on the installed scheduler's clock and spawns the entities,
// Validate is the teardown. The returned driver holds the last run's
// result.
func checkWorkload(c *Compiled, build func() ([]sim.ScriptEntity, lock), eachOp bool) (check.Workload, *driver) {
	d := &driver{eachOp: eachOp}
	return check.Workload{
		Name: "scenario:" + c.Scenario.Name,
		Setup: func(s *check.Sched) {
			d.rt = checkRT{s}
			d.start(build())
		},
		Validate: func() error { return d.lk.teardown(&d.res) },
	}, d
}

// Workload adapts a compiled scenario into an explorable
// internal/check workload: the real lock runs the scenario's script
// while the explorer perturbs the schedule at every instrumented
// decision site. Mutual exclusion is asserted at every grant, the lock
// invariants (accountant conservation) after every op, and a clean
// teardown at the end; no lost grant is the scheduler's deadlock
// detector. The same scenario files are differential-oracle inputs and
// exploration seeds.
func Workload(c *Compiled) check.Workload {
	w, _ := checkWorkload(c, func() ([]sim.ScriptEntity, lock) { return realLock(c) }, true)
	return w
}
