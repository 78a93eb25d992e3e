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

// This file is the one interpreter of a script on the real locks. The
// op loop (driver) is written once. Under it sits a lock: a Mutex, an
// RWLock, or the keys of a Manager. Around it sits a runtime: the
// deterministic checker, or goroutines on the real clock. A Spec names
// the lock and its scripts: a compiled scenario lowers to one, and so
// does every named explorer workload (internal/check/workloads). Every
// run records the same sim.ScriptResult and makes the same checks:
// exclusion at every grant, exactly one run of every granted section,
// the optional wait bound, and the lock's teardown.

// runtime is what the op loop needs of whatever runs the entities.
type runtime interface {
	spawn(name string, fn func())
	sleep(d time.Duration)
	now() time.Duration
	// fail reports a broken guarantee (exclusion, invariants).
	fail(format string, args ...any)
}

// checkRT runs entities as managed goroutines of the deterministic
// checker, on its virtual clock; fail aborts the schedule. A sleep is a
// decision site even when it is zero long.
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

// Spec is a real lock and the entity scripts the driver runs on it.
type Spec struct {
	Entities []sim.ScriptEntity
	// Exactly one of Mutex, RW and Table is set.
	Mutex *MutexSpec
	RW    *RWSpec
	Table *TableSpec
	// WaitBound, when positive, fails any acquire or Do that takes longer
	// from call to grant: the opportunity-imbalance bound.
	WaitBound time.Duration
}

// MutexSpec is one scl.Mutex with a handle per entity.
type MutexSpec struct {
	// Options configures the Mutex; the driver supplies the Tracer.
	Options scl.Options
	// SiblingOf[i] = j < i opens entity i's first handle as a Sibling of
	// entity j's, so both lock as one registered entity. Any other value
	// registers entity i on its own, as does every reopen after a close.
	SiblingOf []int
	// Trace records the lock's events in a ring; bans are counted from it.
	Trace bool
	// SwapTracer removes the tracer around every think op and reinstalls
	// it after. It implies Trace.
	SwapTracer bool
}

// RWSpec is one scl.RWLock; an entity's class is all it has.
type RWSpec struct {
	ReadWeight, WriteWeight int64         // 0 = 1
	Period                  time.Duration // 0 = 2ms
	Writer                  []bool        // per entity
}

// TableSpec is one scl.Manager: entity i is a tenant, and each op
// addresses key k<op.Key>.
type TableSpec struct {
	Options scl.ManagerOptions
	Keys    int
}

// lock builds a fresh lock for s.
func (s Spec) lock() lock {
	switch {
	case s.RW != nil:
		return newRWLock(s.RW)
	case s.Table != nil:
		return newTableLock(s.Table, s.Entities)
	}
	return newMutexLock(s.Mutex, s.Entities)
}

// lock is the real lock under a script, addressed by entity index.
type lock interface {
	// acquire takes the lock (on a table, key) for entity i, registering
	// the entity first if it has no registration. A nil ctx is an
	// uncancellable acquire.
	acquire(ctx context.Context, i, key int) error
	// try is one non-blocking attempt; a lock without TryLock acquires.
	try(i, key int) bool
	release(i int)
	// do runs fn as entity i's combined critical section.
	do(i, key int, fn func())
	// close retires entity i's registration, if it has one; its next
	// acquire registers it afresh. A hold in flight still releases.
	close(i int)
	// think runs an entity's off-lock sleep.
	think(sleep func())
	// enter and exit bracket entity i's critical section; enter reports
	// a second holder the lock should have excluded.
	enter(i int) error
	exit(i int)
	// check is the lock's CheckInvariants.
	check() error
	// drain runs once, after every entity has finished.
	drain() error
	// teardown checks the lock once every entity has finished and adds
	// what only the lock saw (bans) to r.
	teardown(r *sim.ScriptResult) error
}

// driver is the op loop: it runs each scripted entity against a lock on
// a runtime and records the grants, timeouts and holds it observes.
type driver struct {
	rt    runtime
	lk    lock
	ents  []sim.ScriptEntity
	bound time.Duration
	// eachOp checks the lock's invariants after every op.
	eachOp bool
	left   atomic.Int32 // entities still running
	mu     sync.Mutex   // guards res and balance: a combined section runs on the holder's goroutine
	res    sim.ScriptResult
	// balance[i][n] is the section runs of entity i's op n less its
	// grants: zero for every op once the run is over.
	balance [][]int
}

// start resets the result and spawns one goroutine per entity.
func (d *driver) start(s Spec, lk lock) {
	n := len(s.Entities)
	d.ents, d.lk, d.bound = s.Entities, lk, s.WaitBound
	d.res = sim.ScriptResult{Timeouts: make([]int, n), Bans: make([]int, n), Hold: make([]time.Duration, n)}
	d.balance = make([][]int, n)
	d.left.Store(int32(n))
	for i, ent := range d.ents {
		d.balance[i] = make([]int, len(ent.Ops))
		d.rt.spawn(ent.Name, func() { d.entity(i) })
	}
}

// entity runs entity i's script and closes its registration at the end;
// the last entity to finish runs the lock's drain. The close is not
// deferred: a failed checker run unwinds its goroutines outside the
// schedule, where the lock must not run.
func (d *driver) entity(i int) {
	ent := d.ents[i]
	d.rt.sleep(ent.Start)
	for n, op := range ent.Ops {
		at := d.rt.now()
		switch op.Kind {
		case sim.OpThink:
			d.lk.think(func() { d.rt.sleep(op.Think) })
		case sim.OpClose:
			d.lk.close(i)
		case sim.OpDo:
			// The section may run on another entity's goroutine, but it
			// runs exactly once and is charged to i; the grant lands when
			// Do returns.
			d.lk.do(i, op.Key, func() { d.section(i, n, op.Hold) })
			d.grant(i, n, at)
		default:
			if !d.acquire(i, op) {
				break
			}
			d.grant(i, n, at)
			if op.Kind == sim.OpCloseHeld {
				d.lk.close(i) // the release below is a ghost release
			}
			d.section(i, n, op.Hold)
			d.lk.release(i)
		}
		d.checkAfter(i, n)
	}
	d.lk.close(i)
	d.checkAfter(i, len(ent.Ops))
	if d.left.Add(-1) == 0 {
		if err := d.lk.drain(); err != nil {
			d.rt.fail("drain after %s: %v", ent.Name, err)
		}
	}
}

// acquire runs one of the acquire kinds for entity i and reports whether
// it was granted. A cancellable acquire gets a canceller that fires
// after op.Timeout.
func (d *driver) acquire(i int, op sim.ScriptOp) bool {
	switch op.Kind {
	case sim.OpTry:
		return d.lk.try(i, op.Key)
	case sim.OpAcquireTimeout:
		ctx, cancel := context.WithCancel(context.Background())
		d.rt.spawn(d.ents[i].Name+".cancel", func() {
			d.rt.sleep(op.Timeout)
			cancel()
		})
		err := d.lk.acquire(ctx, i, op.Key)
		cancel()
		if err != nil {
			d.mu.Lock()
			d.res.Timeouts[i]++
			d.mu.Unlock()
		}
		return err == nil
	}
	return d.lk.acquire(nil, i, op.Key) == nil
}

// grant records entity i's op n as granted, and checks the wait since at
// against the bound.
func (d *driver) grant(i, n int, at time.Duration) {
	if wait := d.rt.now() - at; d.bound > 0 && wait > d.bound {
		d.rt.fail("opportunity-imbalance bound exceeded: op %d of %s waited %v (bound %v)", n, d.ents[i].Name, wait, d.bound)
	}
	d.mu.Lock()
	d.res.Grants = append(d.res.Grants, i)
	d.balance[i][n]--
	d.mu.Unlock()
}

// section is the critical section of entity i's op n: exclusion is
// checked on entry and the measured hold is charged to i.
func (d *driver) section(i, n int, hold time.Duration) {
	if err := d.lk.enter(i); err != nil {
		d.rt.fail("%s: %v", d.ents[i].Name, err)
	}
	at := d.rt.now()
	d.rt.sleep(hold)
	held := d.rt.now() - at
	d.lk.exit(i)
	d.mu.Lock()
	d.res.Hold[i] += held
	d.balance[i][n]++
	d.mu.Unlock()
}

// checkAfter checks the lock's invariants after entity i's op n (n ==
// len(Ops): its final close) when eachOp is set.
func (d *driver) checkAfter(i, n int) {
	if !d.eachOp {
		return
	}
	if err := d.lk.check(); err != nil {
		d.rt.fail("invariants broken after op %d of %s: %v", n, d.ents[i].Name, err)
	}
}

// teardown checks that every granted section ran exactly once and no
// other ran, then runs the lock's teardown.
func (d *driver) teardown() error {
	for i, ent := range d.ents {
		for n, b := range d.balance[i] {
			if b != 0 {
				return fmt.Errorf("exactly-once broken: op %d of %s ran its section %+d times beyond its grants", n, ent.Name, b)
			}
		}
	}
	return d.lk.teardown(&d.res)
}

// exclusive counts a holder in and reports any other.
func exclusive(held *atomic.Int32) error {
	if n := held.Add(1); n != 1 {
		return fmt.Errorf("mutual exclusion violated: %d holders", n)
	}
	return nil
}

// mutexLock is one scl.Mutex with a handle per entity; its tracer ring,
// if any, is where bans are counted.
type mutexLock struct {
	m     *scl.Mutex
	ring  *trace.Ring
	swap  bool
	names []string
	hs    []*scl.Handle // entity i's open handle, nil once closed
	holds []*scl.Handle // the handle entity i last acquired through
	held  atomic.Int32
}

// newMutexLock builds the Mutex and registers every entity before the
// run, as the simulator does.
func newMutexLock(s *MutexSpec, ents []sim.ScriptEntity) lock {
	n := len(ents)
	l := &mutexLock{swap: s.SwapTracer, hs: make([]*scl.Handle, n), holds: make([]*scl.Handle, n)}
	opts := s.Options
	if s.Trace || s.SwapTracer {
		l.ring = trace.NewRing(1 << 14)
		opts.Tracer = l.ring
	}
	l.m = scl.NewMutex(opts)
	for i, ent := range ents {
		l.names = append(l.names, ent.Name)
		if i < len(s.SiblingOf) && s.SiblingOf[i] < i && s.SiblingOf[i] >= 0 {
			l.hs[i] = l.hs[s.SiblingOf[i]].Sibling().SetName(ent.Name)
		}
		l.handle(i)
	}
	return l
}

func (l *mutexLock) handle(i int) *scl.Handle {
	if l.hs[i] == nil {
		l.hs[i] = l.m.Register().SetName(l.names[i])
	}
	return l.hs[i]
}

func (l *mutexLock) acquire(ctx context.Context, i, _ int) error {
	l.holds[i] = l.handle(i)
	if ctx == nil {
		l.holds[i].Lock()
		return nil
	}
	return l.holds[i].LockContext(ctx)
}

func (l *mutexLock) try(i, _ int) bool {
	l.holds[i] = l.handle(i)
	return l.holds[i].TryLock()
}

func (l *mutexLock) release(i int)          { l.holds[i].Unlock() }
func (l *mutexLock) do(i, _ int, fn func()) { l.handle(i).Do(fn) }
func (l *mutexLock) enter(int) error        { return exclusive(&l.held) }
func (l *mutexLock) exit(int)               { l.held.Add(-1) }
func (l *mutexLock) check() error           { return l.m.CheckInvariants() }
func (l *mutexLock) drain() error           { return nil }

func (l *mutexLock) think(sleep func()) {
	if !l.swap {
		sleep()
		return
	}
	l.m.SetTracer(nil)
	sleep()
	l.m.SetTracer(l.ring)
}

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
	if l.ring == nil {
		return nil
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

// rwLock is one scl.RWLock. RWLock.Do is exclusive, so scripts give Do
// ops to writers.
type rwLock struct {
	l                *scl.RWLock
	writer           []bool
	readers, writers atomic.Int32
	drained          int64 // drain probes granted
}

func newRWLock(s *RWSpec) lock {
	return &rwLock{
		l:      scl.NewRWLock(s.ReadWeight, s.WriteWeight, s.Period),
		writer: s.Writer,
	}
}

func (l *rwLock) acquire(ctx context.Context, i, _ int) error {
	switch {
	case ctx != nil && l.writer[i]:
		return l.l.WLockContext(ctx)
	case ctx != nil:
		return l.l.RLockContext(ctx)
	case l.writer[i]:
		l.l.WLock()
	default:
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

func (l *rwLock) try(i, key int) bool    { return l.acquire(nil, i, key) == nil }
func (l *rwLock) do(_, _ int, fn func()) { l.l.Do(fn) }
func (l *rwLock) close(int)              {}
func (l *rwLock) think(sleep func())     { sleep() }
func (l *rwLock) check() error           { return l.l.CheckInvariants() }

// drain is one final write acquire. The write-phase drain admits a
// writer only when the reader shards sum to zero, so a reader counted
// twice parks the probe for good: a checker deadlock, or the wall
// watchdog.
func (l *rwLock) drain() error {
	l.l.WLock()
	l.drained++
	r, w := l.readers.Load(), l.writers.Load()
	l.l.WUnlock()
	if r+w != 0 {
		return fmt.Errorf("exclusion violated: drain probe beside %d readers and %d writers", r, w)
	}
	return nil
}

// teardown checks op conservation: the lock's Stats count exactly the
// reader and writer grants the driver saw, plus the drain probe.
func (l *rwLock) teardown(r *sim.ScriptResult) error {
	if err := l.l.CheckInvariants(); err != nil {
		return err
	}
	reads, writes := int64(0), l.drained
	for _, i := range r.Grants {
		if l.writer[i] {
			writes++
		} else {
			reads++
		}
	}
	if st := l.l.Stats(); st.ReaderOps != reads || st.WriterOps != writes {
		return fmt.Errorf("op conservation broken: lock counted %d reader and %d writer ops, driver granted %d and %d",
			st.ReaderOps, st.WriterOps, reads, writes)
	}
	return nil
}

// tableLock is one scl.Manager: entity i is a tenant, and exclusion
// holds per key. A close retires the whole tenant identity, the
// single-lock close/re-register at table scope.
type tableLock struct {
	m     *scl.Manager
	names []string
	keys  []string
	keyOf []int // the key entity i last acquired
	tns   []*scl.Tenant
	gs    []*scl.Grant
	held  []atomic.Int32 // per key
}

func newTableLock(s *TableSpec, ents []sim.ScriptEntity) lock {
	n := len(ents)
	l := &tableLock{
		m:     scl.NewManager(s.Options),
		keyOf: make([]int, n),
		tns:   make([]*scl.Tenant, n),
		gs:    make([]*scl.Grant, n),
		held:  make([]atomic.Int32, s.Keys),
	}
	for k := range s.Keys {
		l.keys = append(l.keys, fmt.Sprintf("k%d", k))
	}
	for i, ent := range ents {
		l.names = append(l.names, ent.Name)
		l.tenant(i)
	}
	return l
}

func (l *tableLock) tenant(i int) *scl.Tenant {
	if l.tns[i] == nil {
		l.tns[i] = l.m.Tenant(l.names[i], 1)
	}
	return l.tns[i]
}

func (l *tableLock) acquire(ctx context.Context, i, key int) (err error) {
	l.keyOf[i] = key
	if ctx == nil {
		l.gs[i] = l.tenant(i).Lock(l.keys[key])
		return nil
	}
	l.gs[i], err = l.tenant(i).LockContext(ctx, l.keys[key])
	return err
}

func (l *tableLock) try(i, key int) bool { return l.acquire(nil, i, key) == nil }
func (l *tableLock) release(i int)       { l.gs[i].Unlock() }
func (l *tableLock) exit(i int)          { l.held[l.keyOf[i]].Add(-1) }
func (l *tableLock) think(sleep func())  { sleep() }
func (l *tableLock) check() error        { return l.m.CheckInvariants() }
func (l *tableLock) drain() error        { return nil }

func (l *tableLock) do(int, int, func()) { panic("scenario: do on a lock table") }

func (l *tableLock) close(i int) {
	if l.tns[i] != nil {
		l.tns[i].Close()
		l.tns[i] = nil
	}
}

func (l *tableLock) enter(i int) error {
	if err := exclusive(&l.held[l.keyOf[i]]); err != nil {
		return fmt.Errorf("%s: %w", l.keys[l.keyOf[i]], err)
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

// specOf lowers a compiled scenario to the lock it drives on the wall
// substrate and under the explorer. A keyed scenario drives one
// scl.Manager, so the lock-table path itself runs; the check substrate
// instead mirrors the simulator's independent per-key locks
// (runCheckKeyed).
func specOf(c *Compiled) Spec {
	switch {
	case c.RW != nil:
		s := Spec{RW: &RWSpec{ReadWeight: c.RW.ReadWeight, WriteWeight: c.RW.WriteWeight, Period: c.RW.Period}}
		for _, ent := range c.RW.Entities {
			s.Entities = append(s.Entities, sim.ScriptEntity{Name: ent.Name, Start: ent.Start, Ops: ent.Ops})
			s.RW.Writer = append(s.RW.Writer, ent.Writer)
		}
		return s
	case len(c.Keyed) > 0:
		s := Spec{Table: &TableSpec{Options: managerOptions(c.Scenario), Keys: len(c.Keyed)}}
		for i := range c.Names {
			ent := c.Keyed[c.KeyOf[i]].Entities[c.LocalOf[i]]
			ent.Ops = slices.Clone(ent.Ops)
			for n := range ent.Ops {
				ent.Ops[n].Key = c.KeyOf[i]
			}
			s.Entities = append(s.Entities, ent)
		}
		return s
	}
	return mutexSpec(c.Scenario.Name, c.Mutex)
}

// mutexSpec is the traced Mutex a single-lock script runs on.
func mutexSpec(name string, s *sim.Script) Spec {
	return Spec{Entities: s.Entities, Mutex: &MutexSpec{Options: scl.Options{Slice: s.Slice, Name: name}, Trace: true}}
}

// managerOptions is the lock table every substrate that drives a real
// scl.Manager builds for s: two stripes, so stripe handoffs run. The
// keys run u-SCL on the scenario's slice, as the sim's per-key locks
// do: a zero slice is the sim's 2ms default, not the Manager's own zero
// default (k-SCL keys).
func managerOptions(s *Scenario) scl.ManagerOptions {
	return scl.ManagerOptions{Lock: scl.Options{Slice: cmp.Or(s.Slice, scl.DefaultSlice)}, Name: s.Name, Stripes: 2}
}

// checkWorkload runs the lock newLock builds for s under the checker:
// Setup builds it on the installed scheduler's clock and spawns the
// entities, Validate is the teardown. The returned driver holds the
// last run's result.
func checkWorkload(name string, s Spec, newLock func() lock, eachOp bool) (check.Workload, *driver) {
	d := &driver{eachOp: eachOp}
	return check.Workload{
		Name: name,
		Setup: func(sc *check.Sched) {
			d.rt = checkRT{sc}
			d.start(s, newLock())
		},
		Validate: d.teardown,
	}, d
}

// Workload adapts a compiled scenario into an explorable
// internal/check workload (Explorable). The same scenario files are
// differential-oracle inputs and exploration seeds.
func Workload(c *Compiled) check.Workload { return Explorable("scenario:"+c.Scenario.Name, specOf(c)) }

// Explorable is the explorer workload that runs s on a fresh lock per
// schedule while the explorer perturbs the schedule at every
// instrumented decision site. Besides the op loop's per-run checks,
// the lock's invariants are checked after every op; no lost grant is
// the scheduler's deadlock detector.
func Explorable(name string, s Spec) check.Workload {
	w, _ := checkWorkload(name, s, s.lock, true)
	return w
}
