package sim

import (
	"time"

	"scl/internal/core"
	"scl/trace"
)

// USCLParams configures a simulated Scheduler-Cooperative Lock.
type USCLParams struct {
	// Slice is the lock slice length (paper default 2ms). Zero with
	// ZeroSlice false means the default; set ZeroSlice for k-SCL behaviour
	// where every release is a slice boundary.
	Slice     time.Duration
	ZeroSlice bool
	// Prefetch enables the next-thread prefetch optimization: the head
	// waiter spins so ownership transfers without a wake round-trip
	// (paper §4.3). u-SCL sets it; the simplified k-SCL does not.
	Prefetch bool
	// InactiveTimeout enables k-SCL's GC of entities that have not used
	// the lock recently (paper uses 1s).
	InactiveTimeout time.Duration
	// BanCap bounds one penalty (0 = core default).
	BanCap time.Duration
	// PriorityInheritance makes the lock holder inherit the scheduler
	// weight of the heaviest waiter for the duration of its hold, so a
	// low-priority holder preempted on a contended CPU cannot invert a
	// high-priority waiter's latency (the paper's §7 suggestion to combine
	// priority inheritance with SCLs, after Sha et al.).
	PriorityInheritance bool
}

// USCL simulates the user-space Scheduler-Cooperative Lock: a K42/MCS-style
// queue lock with per-thread usage accounting, lock slices, penalties for
// over-users, and next-thread prefetch (paper §4.3).
type USCL struct {
	e    *Engine
	p    USCLParams
	acct *core.Accountant

	heldBy *Task
	// baseWeight is the holder's own weight while PriorityInheritance has
	// it boosted (0 = no boost active).
	baseWeight int64
	// next is the head waiter (spinning when Prefetch, parked otherwise);
	// parked holds the rest of the queue in arrival order.
	next     *usclWaiter
	parked   []*usclWaiter
	transfer bool // ownership grant in flight to next

	// combine holds published critical sections (Do) awaiting the
	// holder's release-time drain, in publish order; the drain takes the
	// newest first, matching the real lock's Treiber-stack pop.
	combine []*usclCombine

	sliceEvtGen uint64 // validity of the scheduled slice-end transfer

	holds holdTimes
	stats *LockStats
}

type usclWaiter struct {
	t           *Task
	promoted    bool // moved from parked to next
	parkedAt    bool // actually asleep (vs still entering the kernel)
	granted     bool // ownership handed to this waiter
	intra       bool // intra-class handoff: the slice continues
	wakePending bool // an unpark is already in flight
}

// wake unparks a sleeping waiter exactly once per sleep.
func (l *USCL) wake(w *usclWaiter) {
	if w.parkedAt && !w.wakePending {
		w.wakePending = true
		l.e.unpark(w.t)
	}
}

// usclCombine is one published critical section (Do) awaiting the
// holder's drain.
type usclCombine struct {
	t        *Task
	hold     time.Duration
	since    time.Duration // publish time, for the wait sample
	done     bool          // executed by the combiner
	rejected bool          // self-serve through the classic path
	parkedAt bool
}

// usclCombineBatch mirrors the real lock's per-release drain bound
// (scl's combineBatch).
const usclCombineBatch = 16

// Do acquires the lock, runs a critical section of length hold, and
// releases — semantically Lock; Compute(hold); Unlock — but when another
// task holds the lock the section is published for the holder to execute
// on its way out, mirroring scl.Handle.Do. Usage lands on t's entity
// either way (Accountant.FoldBatch), so bans and slice rotation are
// exactly as if t had acquired itself; only the queueing dance is elided.
func (l *USCL) Do(t *Task, hold time.Duration) {
	id := t.Entity()
	if !l.acct.Registered(id) {
		l.acct.Register(id, t.weight, t.e.now)
	}
	if l.acct.BannedUntil(id) > t.e.now || (l.heldBy == nil && !l.transfer) {
		// Banned entities sleep out their penalty in the classic path (a
		// real combiner rejects them at drain time); a free lock is
		// cheaper to take than to combine over.
		l.doClassic(t, hold)
		return
	}
	t.Compute(l.e.cfg.Cost.CombinePublish) // push CAS on the contended stack
	if l.heldBy == nil && !l.transfer {
		// The holder left while we were publishing; self-serve.
		l.doClassic(t, hold)
		return
	}
	r := &usclCombine{t: t, hold: hold, since: t.e.now}
	l.combine = append(l.combine, r)
	t.Compute(l.e.cfg.Cost.ParkCPU)
	for !r.done && !r.rejected {
		r.parkedAt = true
		t.park()
		r.parkedAt = false
	}
	if r.rejected {
		l.doClassic(t, hold)
	}
}

// doClassic is Do through the ordinary acquire path.
func (l *USCL) doClassic(t *Task, hold time.Duration) {
	l.Lock(t)
	t.Compute(hold)
	l.Unlock(t)
}

// wakeCombine resumes a publisher whose request resolved; the releaser
// pays the wake syscall for a parked one. A publisher still on the park
// entry path observes the resolution before sleeping.
func (l *USCL) wakeCombine(r *usclCombine, t *Task) {
	if r.parkedAt {
		t.Compute(l.e.cfg.Cost.FutexWake)
		l.e.unpark(r.t)
	}
}

// drainCombine executes published critical sections on the releasing
// holder's CPU: up to usclCombineBatch sections, newest first, with
// banned publishers rejected to the classic path (where they sleep out
// the penalty), exactly as the real lock's drain does. Usage lands
// through Accountant.FoldBatch after the batch runs, so each publisher
// is charged — and banned — as if it had acquired itself. Runs between
// the holder's release bookkeeping and the lock going free: the lock
// still reads as held, so nobody acquires over the batch.
func (l *USCL) drainCombine(t *Task) {
	var batch []*usclCombine
	for len(l.combine) > 0 && len(batch) < usclCombineBatch {
		r := l.combine[len(l.combine)-1]
		l.combine = l.combine[:len(l.combine)-1]
		if l.acct.BannedUntil(r.t.Entity()) > t.e.now {
			r.rejected = true
			l.wakeCombine(r, t)
			continue
		}
		batch = append(batch, r)
	}
	if len(batch) == 0 {
		return
	}
	charges := make([]core.Charge, len(batch))
	for i, r := range batch {
		t.Compute(l.e.cfg.Cost.CombineDispatch)
		l.stats.onWait(r.t, t.e.now-r.since)
		l.stats.onAcquire(r.t)
		cs := t.e.now
		t.Compute(r.hold)
		charges[i] = core.Charge{ID: r.t.Entity(), Usage: t.e.now - cs}
		l.stats.onRelease(r.t, charges[i].Usage)
	}
	pens := l.acct.FoldBatch(charges, t.e.now)
	for i, r := range batch {
		if pens[i] > 0 {
			l.e.traceEvent(trace.KindBan, r.t, pens[i])
		}
		r.done = true
		l.wakeCombine(r, t)
	}
}

// rejectStrandedCombines self-serves publishers left queued when the
// lock goes idle: with no holder left to drain them, the real lock's
// release-time wake-walk makes publishers withdraw and acquire
// classically, and the simulation mirrors that.
func (l *USCL) rejectStrandedCombines(t *Task) {
	if l.heldBy != nil || l.transfer || len(l.combine) == 0 {
		return
	}
	for _, r := range l.combine {
		r.rejected = true
		l.wakeCombine(r, t)
	}
	l.combine = l.combine[:0]
}

// NewUSCL creates a u-SCL: 2ms slices (unless overridden) and next-thread
// prefetch.
func NewUSCL(e *Engine, slice time.Duration) *USCL {
	if slice == 0 {
		slice = core.DefaultSlice
	}
	return newSCL(e, USCLParams{Slice: slice, Prefetch: true})
}

// NewKSCL creates a k-SCL: zero-length slices (every release is a slice
// boundary), no prefetch, and 1s inactive-entity GC (paper §4.4).
func NewKSCL(e *Engine) *USCL {
	return newSCL(e, USCLParams{ZeroSlice: true, InactiveTimeout: time.Second})
}

// NewSCL creates a Scheduler-Cooperative Lock with explicit parameters.
func NewSCL(e *Engine, p USCLParams) *USCL { return newSCL(e, p) }

func newSCL(e *Engine, p USCLParams) *USCL {
	slice := p.Slice
	if slice == 0 && !p.ZeroSlice {
		slice = core.DefaultSlice
	}
	return &USCL{
		e: e,
		p: p,
		acct: core.NewAccountant(core.Params{
			Slice:           slice,
			InactiveTimeout: p.InactiveTimeout,
			BanCap:          p.BanCap,
		}),
		holds: holdTimes{},
		stats: newLockStats(e),
	}
}

// Stats returns the lock's statistics.
func (l *USCL) Stats() *LockStats { return l.stats }

// Accountant exposes the usage accounting (for tests and ablations).
func (l *USCL) Accountant() *core.Accountant { return l.acct }

// Lock acquires the lock. A banned caller first sleeps out its penalty;
// then it either fast-paths (it owns the live slice, or the lock is wholly
// free) or queues: the head waiter spins (u-SCL) or parks (k-SCL), the
// rest park.
func (l *USCL) Lock(t *Task) {
	start := t.e.now
	id := t.Entity()
	if !l.acct.Registered(id) {
		l.acct.Register(id, t.weight, t.e.now)
	}
	if until := l.acct.BannedUntil(id); until > t.e.now {
		t.SleepUntil(until)
	}
	t.Compute(l.e.cfg.Cost.AtomicOp) // fast-path CAS
	if l.tryFast(t) {
		l.acquire(t)
	} else {
		l.enqueue(t) // acquisition completes inside finishGrant
	}
	l.stats.onWait(t, t.e.now-start)
}

// LockTimeout is Lock with a give-up deadline: if the lock has not been
// granted within timeout of the call, the waiter abandons the queue and
// LockTimeout returns false. A waiter that has started spinning (the
// promoted head under Prefetch) is committed — a timeout landing after
// that is too late, mirroring the real lock's grant/cancel race where a
// grant that lands first wins. Parked waiters, including a promoted
// head in the no-prefetch configuration, can abandon until granted,
// matching scl.Handle.LockContext (the differential oracle therefore
// scripts cancellation against the no-prefetch variant).
func (l *USCL) LockTimeout(t *Task, timeout time.Duration) bool {
	start := t.e.now
	deadline := start + timeout
	id := t.Entity()
	if !l.acct.Registered(id) {
		l.acct.Register(id, t.weight, t.e.now)
	}
	if until := l.acct.BannedUntil(id); until > t.e.now {
		if until >= deadline {
			// The ban outlasts the deadline; the real lock's context fires
			// during the ban sleep and the acquire never starts.
			t.SleepUntil(deadline)
			return false
		}
		t.SleepUntil(until)
	}
	t.Compute(l.e.cfg.Cost.AtomicOp) // fast-path CAS
	if l.tryFast(t) {
		l.acquire(t)
		l.stats.onWait(t, t.e.now-start)
		return true
	}
	if !l.enqueueTimeout(t, deadline) {
		return false
	}
	l.stats.onWait(t, t.e.now-start)
	return true
}

// enqueueTimeout is enqueue with an abandon deadline. It reports whether
// the lock was acquired.
func (l *USCL) enqueueTimeout(t *Task, deadline time.Duration) bool {
	l.inheritPriority(t)
	w := &usclWaiter{t: t}
	if l.next == nil {
		w.promoted = true
		l.next = w
	} else {
		l.parked = append(l.parked, w)
	}
	abandoned := false
	if !w.promoted || !l.p.Prefetch {
		// The event fires in engine context (the waiter is blocked), so the
		// flags are stable. A spinning waiter is committed; a parked one —
		// promoted head included — abandons its queue slot.
		l.e.schedule(deadline, func() {
			if w.granted || abandoned || w.t.spinning {
				return
			}
			if w.promoted && l.p.Prefetch {
				return // about to spin: committed
			}
			abandoned = true
			if l.next == w {
				l.next = nil
				l.promoteHead(nil)
			} else {
				l.removeParked(w)
			}
			l.wake(w)
		})
	}
	if w.promoted && l.p.Prefetch {
		l.armSliceEnd()
		t.spin() // granted via grantNext
		l.finishGrant(w, t)
		return true
	}
	t.Compute(l.e.cfg.Cost.ParkCPU)
	for {
		if w.granted {
			break
		}
		if abandoned {
			return false
		}
		if w.promoted && l.p.Prefetch {
			l.armSliceEnd()
			t.spin()
			break
		}
		if w.promoted {
			l.armSliceEnd()
		}
		w.parkedAt = true
		t.park()
		w.parkedAt = false
		w.wakePending = false
	}
	l.finishGrant(w, t)
	return true
}

// removeParked detaches an abandoning waiter from the parked queue.
func (l *USCL) removeParked(w *usclWaiter) {
	for i, x := range l.parked {
		if x == w {
			l.parked = append(l.parked[:i], l.parked[i+1:]...)
			return
		}
	}
}

// CloseEntity deregisters t's accounting entity, mirroring
// scl.Handle.Close: its usage history leaves the books, and — because
// deregistering the slice owner frees a reserved lock whose armed
// slice-end event no longer matches — a stranded head waiter is handed
// the lock immediately. The caller must not hold the lock. A later
// Lock/LockTimeout by the same task re-registers the entity afresh.
func (l *USCL) CloseEntity(t *Task) {
	if l.heldBy == t {
		panic("sim: USCL.CloseEntity while holding the lock")
	}
	l.acct.Unregister(t.Entity())
	if l.heldBy == nil && !l.transfer {
		if _, ok := l.acct.SliceOwner(); !ok && l.next != nil {
			l.transferOwnership()
		}
	}
}

// inheritPriority boosts the current holder to the waiter's weight when
// priority inheritance is enabled and the waiter outranks it.
func (l *USCL) inheritPriority(waiter *Task) {
	if !l.p.PriorityInheritance {
		return
	}
	h := l.heldBy
	if h == nil || waiter.weight <= h.weight {
		return
	}
	if l.baseWeight == 0 {
		l.baseWeight = h.weight
	}
	l.e.setWeight(h, waiter.weight)
}

// restorePriority undoes an active inheritance boost at release.
func (l *USCL) restorePriority(t *Task) {
	if l.baseWeight == 0 {
		return
	}
	l.e.setWeight(t, l.baseWeight)
	l.baseWeight = 0
}

// acquire marks t as holder. Must run without an intervening yield after
// the eligibility decision.
func (l *USCL) acquire(t *Task) {
	l.heldBy = t
	t.holding++
	l.acct.OnAcquire(t.Entity(), t.e.now)
	l.holds.start(t)
	l.stats.onAcquire(t)
}

// tryFast reports whether t may take the free lock immediately: it is the
// live slice owner, or nobody owns a slice and nobody waits.
func (l *USCL) tryFast(t *Task) bool {
	if l.heldBy != nil || l.transfer {
		return false
	}
	owner, ok := l.acct.SliceOwner()
	switch {
	case ok && owner == t.Entity() && !l.acct.SliceExpired(t.e.now):
		// The live slice belongs to this task's entity: any member of the
		// class may take the free lock (work-conserving groups, paper §6).
		return true
	case !ok && l.next == nil:
		l.acct.StartSlice(t.Entity(), t.e.now)
		return true
	}
	return false
}

// enqueue blocks t until it is granted slice ownership.
func (l *USCL) enqueue(t *Task) {
	l.inheritPriority(t)
	w := &usclWaiter{t: t}
	if l.next == nil {
		w.promoted = true
		l.next = w
	} else {
		l.parked = append(l.parked, w)
	}
	if w.promoted && l.p.Prefetch {
		l.armSliceEnd()
		t.spin() // granted via grantNext
		l.finishGrant(w, t)
		return
	}
	// Parked path: sleep until promoted+granted (k-SCL grants directly to
	// the parked head, u-SCL promotes parked waiters to spinning next).
	t.Compute(l.e.cfg.Cost.ParkCPU)
	for {
		if w.granted {
			break
		}
		if w.promoted && l.p.Prefetch {
			l.armSliceEnd()
			t.spin()
			break
		}
		if w.promoted {
			l.armSliceEnd()
		}
		w.parkedAt = true
		t.park()
		w.parkedAt = false
		w.wakePending = false
	}
	l.finishGrant(w, t)
}

// finishGrant completes an ownership transfer in the grantee's context.
// The acquisition itself must land before promoteHead's wake cost yields
// control: with a slice shorter than the handoff, a slice-end event firing
// in that window would otherwise see a free lock and grant it a second
// time.
func (l *USCL) finishGrant(w *usclWaiter, t *Task) {
	l.transfer = false
	if l.next == w {
		l.next = nil
	}
	if !w.intra {
		// A slice transfer; an intra-class handoff keeps the running slice.
		l.acct.StartSlice(t.Entity(), t.e.now)
	}
	l.acquire(t)
	l.promoteHead(t)
}

// promoteHead moves the head of the parked queue into next, waking it if
// prefetch is on so it starts spinning (paper Figure 3, step 8). The wake
// cost is paid by the new owner.
func (l *USCL) promoteHead(owner *Task) {
	if l.next != nil || len(l.parked) == 0 {
		return
	}
	w := l.parked[0]
	l.parked = l.parked[1:]
	w.promoted = true
	l.next = w
	if l.p.Prefetch {
		l.wake(w)
		if owner != nil {
			owner.Compute(l.e.cfg.Cost.FutexWake)
		}
	}
}

// Unlock releases the lock; if the slice expired, ownership transfers to
// the head waiter and the accountant may ban the releaser.
func (l *USCL) Unlock(t *Task) {
	if l.heldBy != t {
		panic("sim: USCL.Unlock by non-owner")
	}
	l.restorePriority(t)
	t.Compute(l.accountingCost())
	rel := l.acct.OnRelease(t.Entity(), t.e.now)
	t.holding--
	l.stats.onRelease(t, l.holds.end(t))
	if len(l.combine) > 0 {
		// Drain published sections (Do) while still the nominal holder:
		// heldBy stays set, so nobody acquires over the batch, exactly as
		// the real lock keeps its held bit through the drain.
		l.drainCombine(t)
	}
	l.heldBy = nil
	if l.p.InactiveTimeout > 0 {
		l.acct.Expire(t.e.now)
	}
	if rel.Penalty > 0 {
		l.e.traceEvent(trace.KindBan, t, rel.Penalty)
	}
	if !rel.SliceExpired {
		// Work-conserving classes (paper §6): a queued waiter from the
		// slice-owning class may take the free lock for the rest of the
		// slice — jumping the queue, since the slice is its class's to
		// use — instead of letting the lock idle through the releaser's
		// non-critical section.
		if owner, ok := l.acct.SliceOwner(); ok && !l.transfer {
			if w := l.takeClassWaiter(owner); w != nil {
				l.grantTo(w, true)
				return
			}
		}
		l.armSliceEnd()
		l.rejectStrandedCombines(t)
		return
	}
	l.transferOwnership()
	l.rejectStrandedCombines(t)
}

// takeClassWaiter finds a queued waiter belonging to the given entity and
// detaches it from the parked queue (the next slot is left in place; its
// grant clears it in finishGrant).
func (l *USCL) takeClassWaiter(owner core.ID) *usclWaiter {
	if l.next != nil && l.next.t.Entity() == owner {
		return l.next
	}
	for i, w := range l.parked {
		if w.t.Entity() == owner {
			l.parked = append(l.parked[:i], l.parked[i+1:]...)
			return w
		}
	}
	return nil
}

// accountingCost is the per-release bookkeeping cost; it crosses sockets
// on machines larger than one NUMA node (the paper's §5.3 dip at 16+
// threads).
func (l *USCL) accountingCost() time.Duration {
	c := l.e.cfg.Cost.AtomicOp
	if len(l.e.cpus) > l.e.cfg.Cost.NUMANode {
		c = time.Duration(float64(c) * l.e.cfg.Cost.CrossNodeFactor)
	}
	return c
}

// transferOwnership hands the (free, slice-expired) lock to the head
// waiter, or clears the slice if nobody waits.
func (l *USCL) transferOwnership() {
	if l.transfer {
		return
	}
	w := l.next
	if w == nil {
		l.acct.ClearSlice()
		return
	}
	l.grantTo(w, false)
}

// grantTo hands the free lock to waiter w; intra marks a handoff within
// the owning class's live slice.
func (l *USCL) grantTo(w *usclWaiter, intra bool) {
	if !intra {
		l.e.traceEvent(trace.KindHandoff, w.t, 0)
	}
	l.transfer = true
	w.intra = intra
	w.granted = true
	switch {
	case w.t.spinning:
		l.e.grantSpin(w.t, l.e.cfg.Cost.handoff(1, len(l.e.cpus)))
	case w.parkedAt:
		l.wake(w)
	default:
		// Still on the park entry path; it will observe granted before
		// sleeping.
	}
}

// armSliceEnd schedules a transfer for the case where the slice expires
// while the owner is outside the critical section (the lock is free but
// reserved for the slice owner). Without it, waiters could stall forever
// behind an owner that stopped acquiring.
func (l *USCL) armSliceEnd() {
	owner, ok := l.acct.SliceOwner()
	if !ok || l.next == nil {
		return
	}
	end := l.acct.SliceEnd()
	l.sliceEvtGen++
	gen := l.sliceEvtGen
	e := l.e
	e.schedule(end, func() {
		if gen != l.sliceEvtGen {
			return
		}
		cur, ok2 := l.acct.SliceOwner()
		if !ok2 || cur != owner || l.heldBy != nil || l.transfer {
			return
		}
		if !l.acct.SliceExpired(e.now) {
			return
		}
		l.transferOwnership()
	})
}

var _ Locker = (*USCL)(nil)
