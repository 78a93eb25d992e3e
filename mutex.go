package scl

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// Mutex is a Scheduler-Cooperative mutual-exclusion lock (the paper's
// u-SCL). Entities register to obtain Handles and lock through them; the
// lock tracks per-entity usage and guarantees each registered entity lock
// opportunity proportional to its weight, regardless of critical-section
// lengths.
//
// Internally it is a K42/MCS-style queue: a waiter that arrives at an
// empty queue briefly spins (next-thread prefetch) before it sleeps, and
// later arrivals sleep at once; ownership transfers at lock slice
// boundaries; over-users are banned for the penalty period computed by
// the accounting engine.
//
// # The slice-owner fast path
//
// Re-acquisition by the live slice's owner — the hot path the lock slice
// exists for (paper §4.2, Figure 3) — is a single compare-and-swap on a
// packed 64-bit state word {held, transfer-pending, waiters, slice-stale,
// owner}, with no internal mutex and no clock read. Accounting for those
// operations is deferred: an atomic per-slice accumulator (operation
// count) plus the wall-clock fast window are folded into the accounting
// engine and the stats at slice boundaries, ownership handoffs, and
// Stats snapshots. During its slice the owner is charged the slice's
// wall-clock window — the lock opportunity it denies everyone else —
// rather than per-critical-section time, matching the paper's deferred
// slice accounting. Slice expiry is enforced by the slice timer, which
// marks the state word stale so the owner's next operation falls back to
// the slow path and runs the boundary (transfer, penalty, events).
//
// A k-SCL (zero-length slice, Options.Slice < 0) has no fast path and no
// slice timer: every release is its own slice boundary and hands the
// lock on under the internal mutex, so no timer is ever created for it.
type Mutex struct {
	opts   Options
	name   string
	fastOK bool // slices have nonzero length (k-SCL disables the fast path)

	tracer tracerSlot

	// word is the packed fast-path state: {held, transfer, waiters, stale,
	// owner id}. The fast path CASes it without mu; the slow path mutates
	// it under mu.
	word lockWord
	// fastOps counts fast-path acquisitions since the last fold.
	fastOps atomic.Int64
	// combine is the combining engine (Handle.Do, combine.go): contended
	// Do callers publish their critical sections instead of queueing, and
	// the releasing holder drains a bounded batch while it still holds
	// the held or transfer bit.
	combine combiner

	// csStart and fastHeld are owned by the current lock holder (ordered
	// across holders by the word CASes): whether the live hold was taken
	// on the fast path, and its traced start time (0 when untraced).
	csStart  time.Duration
	fastHeld bool

	mu        sync.Mutex // guards all fields below
	acct      *core.Accountant
	draining  []*combineReq          // batch a drain is executing outside mu
	refs      map[core.ID]*entityRef // open entities, each shared by its handles
	nextReap  time.Duration          // earliest next inactive-entity sweep
	fastSince time.Duration          // start of the open fast window (-1: none)
	queue     []*waiter              // FIFO; queue[0] is the next thread
	// timer drives a u-SCL's slice-end processing (onSliceTimer):
	// stale-marking a fast-path owner, transferring to waiters, clearing
	// an abandoned slice. A k-SCL never arms it (armSliceEnd).
	timer boundaryTimer

	stats lockStats
}

// State-word layout. Owner occupies the low bits as id+1 (0 = no owner).
const (
	wordHeld     = 1 << 63 // the lock is held
	wordTransfer = 1 << 62 // a grant to the head waiter is in flight
	wordWaiters  = 1 << 61 // a waiter of the owner bits' entity is queued
	wordStale    = 1 << 60 // the slice expired; fast path must stand down
	wordOwner    = 1<<60 - 1
)

func ownerBits(id core.ID) uint64 { return (uint64(id) + 1) & wordOwner }

// waiter is one queued Lock call.
type waiter struct {
	parker
	h     *Handle
	intra bool // intra-class handoff: the slice continues
}

// NewMutex creates a Scheduler-Cooperative mutex. Any extra Options
// (e.g. WithInactiveGC) are applied on top of opts.
func NewMutex(opts Options, extra ...Option) *Mutex {
	for _, fn := range extra {
		fn(&opts)
	}
	m := &Mutex{
		opts:   opts,
		name:   opts.Name,
		fastOK: opts.sliceLen() > 0,
		refs:   make(map[core.ID]*entityRef),
		acct: core.NewAccountant(core.Params{
			Slice:           opts.sliceLen(),
			BanCap:          opts.BanCap,
			InactiveTimeout: opts.InactiveTimeout,
		}),
	}
	m.fastSince = -1
	m.word.site = "mu.word.mutate"
	m.combine = combiner{word: &m.word, busy: wordHeld | wordTransfer, sites: &muCombineSites}
	m.timer.fire = m.onSliceTimer
	m.tracer.store(opts.Tracer)
	m.stats.init()
	return m
}

// Name returns the lock's configured label ("" if unnamed).
func (m *Mutex) Name() string { return m.name }

// SetTracer installs (or, with nil, removes) a Tracer at runtime, e.g. to
// attach a trace.Ring flight recorder to a live lock. The swap is atomic
// and safe against concurrent fast-path lock operations.
func (m *Mutex) SetTracer(t Tracer) { m.tracer.store(t) }

// Handle is one schedulable entity's endpoint on a Mutex. A Handle must
// not be used concurrently with itself (it represents a single thread of
// control), but distinct Handles may be used concurrently. Handle
// implements sync.Locker.
type Handle struct {
	m      *Mutex
	id     core.ID
	weight int64
	name   string
	ref    *entityRef // shared with the handle's siblings
}

// entityRef is the state an entity's handles share: how many of them are
// open, and a cached reference to the entity's stats entry, so the slow
// path reaches the entity's books without a map lookup (lockStats.of). The
// Mutex's refs map holds the ref while open > 0. m.mu guards it.
type entityRef struct {
	id    int64
	open  int          // handles not yet closed; 0 once closed or reaped
	books *entityStats // the entity's stats entry as of gen
	gen   uint64       // lockStats.gen when books was resolved
}

var handleIDs atomic.Int64

// Register adds an entity with the reference (nice-0) weight.
func (m *Mutex) Register() *Handle { return m.RegisterWeight(core.ReferenceWeight) }

// RegisterNice adds an entity whose weight derives from a CFS nice value,
// matching the CPU share a proportional-share scheduler would give it.
func (m *Mutex) RegisterNice(nice int) *Handle {
	return m.RegisterWeight(core.NiceToWeight(nice))
}

// RegisterWeight adds an entity with an explicit weight.
func (m *Mutex) RegisterWeight(weight int64) *Handle {
	h := &Handle{m: m, id: core.ID(handleIDs.Add(1)), weight: weight}
	h.ref = &entityRef{id: int64(h.id), open: 1}
	m.lockMu()
	m.acct.Register(h.id, weight, monotime())
	m.refs[h.id] = h.ref
	m.unlockMu()
	return h
}

// Sibling returns a new Handle bound to the same schedulable entity: the
// siblings share lock usage accounting, slices and bans, and so form a
// work-conserving group — while one sibling runs non-critical code,
// another may use the group's lock slice (the paper's §6 class
// generalization: a process, container or tenant with several threads is
// one entity). Each sibling is still a single thread of control.
func (h *Handle) Sibling() *Handle {
	s := &Handle{m: h.m, id: h.id, weight: h.weight, name: h.name, ref: h.ref}
	h.m.lockMu()
	h.ref.open++
	h.m.refs[h.id] = h.ref // back in the map if the entity was reaped
	h.m.unlockMu()
	return s
}

// Close releases the handle; the entity is unregistered when its last
// sibling closes. The Handle must not hold the lock. Closing while an
// operation of the entity is still in flight (a queued sibling, a hold
// that was not released) does not corrupt the books: the unregistration
// is deferred to the operation's completion, so no stale weight survives
// in the accounting. Handles that are never closed are reclaimed by the
// inactive-entity GC when WithInactiveGC is configured.
func (h *Handle) Close() {
	m := h.m
	check.Point("mu.close")
	m.lockMu()
	defer m.unlockMu()
	if h.ref.open--; h.ref.open > 0 {
		return
	}
	h.ref.open = 0
	delete(m.refs, h.id)
	now := monotime()
	m.fold(now)
	if w := m.word.Load(); w&wordHeld != 0 && w&wordOwner == ownerBits(h.id) && !m.entityBusy(h.id) {
		// A fast-path hold is in flight (deferred accounting, so the
		// accountant does not see it). Shut it out with the stale bit —
		// its release then takes the slow path, observes the closed
		// refcount and drops the ghost — unless the release already landed.
		if m.word.mutate(func(x uint64) uint64 { return x | wordStale })&wordHeld != 0 {
			return
		}
	}
	m.dropGhostLocked(h.id, now)
}

// dropGhostLocked unregisters an entity with no open handles once no
// operation of it is in flight (not holding the lock, not queued, not
// combining), so no stale weight survives in totalWeight or grandUsage.
// Close calls it directly. Unregistering under an operation in flight
// would let it re-register the entity with nobody left to remove it, so
// such an operation calls it again on completion instead, converging to
// the same books. m.mu held.
func (m *Mutex) dropGhostLocked(id core.ID, now time.Duration) {
	check.Point("mu.dropghost")
	if _, open := m.refs[id]; open || !m.acct.Registered(id) || m.entityBusy(id) {
		return
	}
	owner, owned := m.acct.SliceOwner()
	owned = owned && owner == id
	if owned {
		m.fold(now)
		m.fastSince = -1
		m.word.mutate(func(x uint64) uint64 { return x &^ (wordOwner | wordWaiters | wordStale) })
	}
	m.acct.Unregister(id)
	m.debugCheckBooks()
	if owned && len(m.queue) > 0 && m.word.Load()&(wordHeld|wordTransfer) == 0 {
		// The departing entity owned the slice with other entities'
		// waiters queued behind it (waiting out the slice, not the lock).
		// Its departure ends the slice; hand the free lock over now, or
		// nobody ever will — the slice-end timer bails when no owner is
		// left.
		m.transferLocked(now)
	}
}

// entityBusy reports whether an operation of entity id is in flight: a
// slow-path hold, a queued waiter, or a published critical section.
// m.mu held.
func (m *Mutex) entityBusy(id core.ID) bool {
	return m.acct.Holding(id) || m.entityQueued(id) || m.entityCombining(id)
}

// queuedAt returns the queue index of entity id's first waiter, or -1.
// m.mu held.
func (m *Mutex) queuedAt(id core.ID) int {
	for i, w := range m.queue {
		if w.h.id == id {
			return i
		}
	}
	return -1
}

// entityQueued reports whether any waiter of entity id is queued. m.mu held.
func (m *Mutex) entityQueued(id core.ID) bool { return m.queuedAt(id) >= 0 }

// maybeReap runs the inactive-entity GC (WithInactiveGC; the paper's
// k-SCL reaps per-thread state idle longer than 1s, §4.4). It is lazy —
// piggybacked on slice boundaries and Stats snapshots, no background
// goroutine — and rate-limited to once per quarter threshold, so the
// amortized cost per lock operation is O(1). The accountant drops
// entities idle past the threshold (never holders, the slice owner,
// banned entities, or queued waiters); their sibling refcounts and
// per-entity stats go with them, so all three maps stay proportional to
// the active set. Residual stats of entities that departed via Close are
// swept on the same schedule (with GC off they are kept forever for
// post-run reporting). m.mu held.
func (m *Mutex) maybeReap(now time.Duration) {
	if m.opts.InactiveTimeout <= 0 || now < m.nextReap {
		return
	}
	m.nextReap = now + m.opts.InactiveTimeout/4
	reaped := m.acct.ExpireInactive(now, func(id core.ID) bool {
		// A queued waiter or a published-but-unexecuted critical section
		// (Handle.Do) is an operation in flight: reaping its entity would
		// strand the charge.
		return m.entityQueued(id) || m.entityCombining(id)
	})
	for _, r := range reaped {
		if ref := m.refs[r.ID]; ref != nil {
			ref.open = 0
			delete(m.refs, r.ID)
		}
		m.emit(trace.KindReap, now, r.ID, m.stats.onReap(int64(r.ID), now), r.Idle)
	}
	for id, e := range m.stats.entities {
		cid := core.ID(id)
		if e.active != 0 || now-e.settledAt < m.opts.InactiveTimeout ||
			m.acct.Registered(cid) || m.entityQueued(cid) {
			continue
		}
		idle := now - e.settledAt
		m.emit(trace.KindReap, now, cid, m.stats.onReap(id, now), idle)
	}
	if len(reaped) > 0 {
		m.debugCheckBooks()
	}
}

// debugCheckBooks validates the accountant's bookkeeping invariants under
// the scldebug build tag (compiled out otherwise). Every unregistration
// path — Close, ghost drop, reap — must leave totalWeight and grandUsage
// equal to the sums over the remaining entities.
func (m *Mutex) debugCheckBooks() {
	if !debugChecks {
		return
	}
	if err := m.acct.CheckInvariants(); err != nil {
		debugFail(err.Error())
	}
}

// SetName attaches a label (used by the stats helpers).
func (h *Handle) SetName(name string) *Handle { h.name = name; return h }

// Name returns the handle's label.
func (h *Handle) Name() string { return h.name }

// fastLock is the slice owner's lock-free acquire: one CAS on the state
// word, no clock read, deferred accounting. It succeeds only while the
// lock is free, no grant is in flight, and the word names h's entity as
// the live (non-stale) slice owner; queued waiters do not block it — the
// owner may use its slice ahead of them, exactly as in the slow path.
func (m *Mutex) fastLock(h *Handle) bool {
	w := m.word.Load()
	if w&^wordWaiters != ownerBits(h.id) {
		return false
	}
	check.Point("mu.fast.lock")
	if !m.word.CompareAndSwap(w, w|wordHeld) {
		return false
	}
	m.fastHeld = true
	m.fastOps.Add(1)
	if m.tracer.load() != nil {
		now := monotime()
		m.csStart = now
		m.emit(trace.KindAcquire, now, h.id, h.name, 0)
	} else {
		m.csStart = 0 // a stale start must not leak into a traced release
	}
	return true
}

// fastUnlock releases a fast-path hold: one CAS, provided no waiter of
// the owner's own entity queued meanwhile (a sibling needs the slow path's
// intra-class handoff; other entities' waiters wait out the slice, which
// the slice timer ends) and the slice was not marked stale by the timer.
// A release through another entity's handle fails the CAS and reaches the
// slow path's misuse check. All holder-owned bookkeeping (csStart,
// fastHeld) happens before the release CAS — after it the next holder
// owns those fields.
func (m *Mutex) fastUnlock(h *Handle) bool {
	if !m.fastHeld {
		return false
	}
	if m.combine.head.Load() != nil {
		// Published critical sections are waiting (Handle.Do): decline so
		// the slow release drains them while the held bit still provides
		// mutual exclusion.
		return false
	}
	traced := m.tracer.load() != nil
	var now, hold time.Duration
	if traced {
		now = monotime()
		if m.csStart > 0 {
			hold = now - m.csStart
		}
	}
	m.fastHeld = false
	check.Point("mu.fast.unlock")
	if !m.word.CompareAndSwap(wordHeld|ownerBits(h.id), ownerBits(h.id)) {
		m.fastHeld = true // slow path will finish this release
		return false
	}
	if traced {
		m.emit(trace.KindRelease, now, h.id, h.name, hold)
	}
	// A publish that raced the release CAS would otherwise park with
	// nobody coming to drain it; wake-walk so it observes the free lock.
	if m.combine.head.Load() != nil {
		m.combine.wakeIdle()
	}
	return true
}

// Lock acquires the mutex on behalf of the handle's entity. If the entity
// is banned for over-use, Lock first sleeps out the penalty (paper §4.2:
// the penalty is computed at release and imposed at acquire).
func (h *Handle) Lock() {
	m := h.m
	if m.fastLock(h) {
		return
	}
	m.lockSlow(h, nil)
}

// LockContext acquires the mutex like Lock, but gives up when ctx is
// cancelled: it returns ctx.Err() and the lock is NOT held. Cancellation
// interrupts both phases of a blocked acquire — the ban sleep (the paper's
// penalty imposed at acquire) and the waiter queue. An abandoning waiter
// detaches cleanly: its queue slot is removed, an ownership grant that
// raced with the cancellation is re-routed to the next eligible waiter
// rather than lost, and the accounting books end up exactly as if the
// entity had never queued (no usage is charged, bans and slice ownership
// are untouched). A ctx that is already cancelled returns without
// blocking, even when the lock is free.
func (h *Handle) LockContext(ctx context.Context) error {
	m := h.m
	if err := ctx.Err(); err != nil {
		return err
	}
	if m.fastLock(h) {
		return nil
	}
	return m.lockSlow(h, ctx)
}

// lockSlow is the shared slow path of Lock (ctx == nil: uncancellable)
// and LockContext.
func (m *Mutex) lockSlow(h *Handle, ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	reqAt := time.Duration(-1) // first clock read inside the loop
	check.Point("mu.lockslow")
	var now time.Duration
	var e *core.Entity
	for {
		m.lockMu()
		now = monotime()
		if reqAt < 0 {
			reqAt = now
		}
		e = m.acct.Lookup(h.id)
		until := e.BannedUntil()
		if until <= now {
			break // proceed, still holding m.mu
		}
		m.unlockMu()
		if sleepBan(until-now, done) {
			m.noteAbandon(h, reqAt)
			return ctx.Err()
		}
	}
	// Uncontended path: we own the live slice, or the lock is wholly
	// free. setHeldLocked can lose only to a fast-path sibling; then we
	// queue like anyone else and its release hands the slice over. The ban
	// check's clock read and lookup serve this acquire: m.mu is still held,
	// so neither time nor the books have moved.
	if m.word.Load()&(wordHeld|wordTransfer) == 0 && m.fastEligible(h, e, now) && m.setHeldLocked() {
		m.acquireLocked(h, e, now, reqAt)
		m.unlockMu()
		return nil
	}
	// Slow path: queue.
	w := &waiter{h: h, parker: parker{wake: make(chan struct{}, 1)}}
	m.queue = append(m.queue, w)
	head := len(m.queue) == 1
	m.syncWaitersBit()
	if head {
		m.armSliceEnd(now)
	}
	m.unlockMu()
	// Only a waiter that found the queue empty spins before parking.
	if !w.await("mu.await", done, head) {
		m.abandon(w, reqAt)
		return ctx.Err()
	}
	// Granted: finalize ownership.
	check.Point("mu.granted")
	m.lockMu()
	now = monotime()
	e = m.acct.Lookup(h.id)
	m.dequeue(w, now)
	if !w.intra {
		// A slice transfer; an intra-class handoff keeps the running slice.
		m.startSlice(h.id, e, now)
	}
	// Take the lock and retire the grant in one step: the transfer bit
	// must not clear before the held bit is up, or the previous owner's
	// fast path could still see a free word naming it.
	m.word.mutate(func(x uint64) uint64 { return (x | wordHeld) &^ wordTransfer })
	m.syncWaitersBit()
	m.armSliceEnd(now) // the transfer bit suppressed arming in startSlice
	m.acquireLocked(h, e, now, reqAt)
	m.unlockMu()
	return nil
}

// abandon resolves a cancelled waiter under m.mu. A grant that raced with
// the cancellation — the granter already set the transfer bit and marked w
// granted — is re-routed rather than lost: this is exactly the
// held-clear→transfer-set window where a dropped grant would wedge every
// remaining waiter. Either way the caller returns without the lock, and
// the accountant's books look as if w had never queued.
func (m *Mutex) abandon(w *waiter, reqAt time.Duration) {
	check.Point("mu.abandon")
	m.lockMu()
	defer m.unlockMu()
	// A regrant below can retire the transfer with nobody left to grant
	// to, leaving the word fully idle: publishers (Handle.Do) that parked
	// while the transfer bit was up must be woken to self-serve, exactly
	// as on the release paths. No-op unless the word actually went idle.
	defer m.combine.wakeIdle()
	now := monotime()
	granted := w.granted.Load() // stable under m.mu: grants happen under it
	m.dequeue(w, now)
	if granted {
		m.regrantLocked(w, now)
	}
	m.syncWaitersBit()
	m.noteAbandonLocked(w.h, now, reqAt)
	m.dropGhostLocked(w.h.id, now)
}

// regrantLocked re-routes an in-flight grant whose grantee w abandoned:
// the transfer bit is up, so no fast path can interfere until the grant is
// either passed on or retired. m.mu held; w is already detached from the
// queue.
func (m *Mutex) regrantLocked(w *waiter, now time.Duration) {
	check.Point("mu.regrant")
	if w.intra {
		// An intra-class handoff: the slice is live and belongs to w's
		// entity. Pass the grant to another queued waiter of the class, or
		// retire it the way Unlock leaves an idle live slice — fast window
		// open for the owner, slice-end timer armed for everyone else.
		if owner, ok := m.acct.SliceOwner(); ok {
			if w2 := m.takeClassWaiter(owner); w2 != nil {
				w2.intra = true
				m.handoff(w2, now)
				return
			}
		}
		m.word.mutate(func(x uint64) uint64 { return x &^ wordTransfer })
		if m.fastOK {
			m.fastSince = now
		}
		m.armSliceEnd(now)
		return
	}
	// A slice transfer: hand it to the new queue head, keeping the
	// transfer bit up throughout (dropping it first would momentarily
	// reopen the expired slice's fast path for the previous owner).
	if len(m.queue) > 0 {
		m.handoff(m.queue[0], now)
		return
	}
	// Nobody left to grant to: retire the transfer and clear the expired
	// slice in one atomic step, as transferLocked does for an empty queue.
	m.acct.ClearSlice()
	m.word.mutate(func(x uint64) uint64 { return x &^ (wordTransfer | wordOwner | wordWaiters | wordStale) })
}

// noteAbandon records a cancelled acquisition that never queued (a ban
// sleep walked out early).
func (m *Mutex) noteAbandon(h *Handle, reqAt time.Duration) {
	m.lockMu()
	defer m.unlockMu()
	m.noteAbandonLocked(h, monotime(), reqAt)
}

// noteAbandonLocked lands a cancellation in the stats and the event
// stream; the event's detail is the time spent waiting before giving up.
// m.mu held.
func (m *Mutex) noteAbandonLocked(h *Handle, now, reqAt time.Duration) {
	wait := now - reqAt
	if wait < 0 {
		wait = 0
	}
	m.stats.of(h.ref).onAbandon(h.name)
	m.emit(trace.KindAbandon, now, h.id, h.name, wait)
}

// TryLock attempts to acquire the mutex without blocking and reports
// whether it succeeded. It fails when the handle's entity is banned, the
// lock is held (or a grant is in flight), another entity owns the live
// slice, or waiters are queued — a waiter-respecting analogue of
// sync.Mutex.TryLock. The one exception is the live slice's owner: as in
// Lock, it takes the free lock with a single CAS ahead of other entities'
// waiters, which wait out its slice.
func (h *Handle) TryLock() bool {
	m := h.m
	// Owner reacquire with no sibling queued: pure fast path.
	if m.word.Load() == ownerBits(h.id) && m.fastLock(h) {
		return true
	}
	check.Point("mu.trylock")
	m.lockMu()
	defer m.unlockMu()
	now := monotime()
	e := m.acct.Lookup(h.id)
	if e.BannedUntil() > now {
		return false
	}
	if m.word.Load()&(wordHeld|wordTransfer) != 0 || len(m.queue) > 0 {
		return false
	}
	if owner, ok := m.acct.SliceOwner(); ok && owner != h.id && !m.acct.SliceExpired(now) {
		return false // someone else's live slice
	}
	if !m.fastEligible(h, e, now) {
		// An expired slice with no waiters: run the boundary inline (what
		// the slice timer would do) and take a fresh slice.
		if _, owned := m.acct.SliceOwner(); !owned || !m.acct.SliceExpired(now) {
			return false
		}
		if !m.endIdleSliceLocked(now) {
			return false // a fast-path holder slipped in
		}
		// The boundary may have dropped this entity as a ghost.
		e = m.acct.Lookup(h.id)
		m.startSlice(h.id, e, now)
	}
	if !m.setHeldLocked() {
		return false // a fast-path sibling got there first
	}
	m.acquireLocked(h, e, now, now)
	return true
}

// fastEligible reports whether h may take the free lock immediately; e is
// h's entity's books (nil: not registered). m.mu held.
func (m *Mutex) fastEligible(h *Handle, e *core.Entity, now time.Duration) bool {
	owner, ok := m.acct.SliceOwner()
	switch {
	case ok && owner == h.id && !m.acct.SliceExpired(now):
		return true
	case !ok && len(m.queue) == 0:
		m.startSlice(h.id, e, now)
		return true
	}
	return false
}

// startSlice makes id the slice owner beginning at now, mirrors ownership
// into the fast-path state word, and schedules the slice-end timer that
// bounds the fast-path regime. e is id's books (nil: not registered).
// m.mu held.
func (m *Mutex) startSlice(id core.ID, e *core.Entity, now time.Duration) {
	m.fold(now)
	m.acct.StartSliceEntry(id, e, now)
	if m.fastOK {
		m.word.mutate(func(w uint64) uint64 {
			w = w&^(wordOwner|wordWaiters|wordStale) | ownerBits(id)
			return w | m.waitersBit(w)
		})
	}
	m.armSliceEnd(now)
}

// setHeldLocked closes an uncontended acquire: a CAS raises the held bit,
// failing if a fast-path acquire (a sibling handle of the slice-owning
// entity) got there first — the caller then queues or bails instead.
// m.mu held.
func (m *Mutex) setHeldLocked() bool {
	for {
		w := m.word.Load()
		if w&wordHeld != 0 {
			return false
		}
		check.Point("mu.setheld")
		if m.word.CompareAndSwap(w, w|wordHeld) {
			return true
		}
	}
}

// acquireLocked books h as holder; the held bit is already up (via
// setHeldLocked or the grant-retiring mutate). e is h's entity's books as
// looked up earlier in this m.mu hold (nil: not registered). m.mu held.
func (m *Mutex) acquireLocked(h *Handle, e *core.Entity, now, reqAt time.Duration) {
	m.fold(now)
	m.fastSince = -1 // held: the fast window is closed
	m.fastHeld = false
	m.csStart = 0
	if e == nil {
		// A reaped (or never-registered) entity returning: re-register
		// through the join-credit floor — going idle does not launder
		// accumulated usage beyond JoinCredit. Restore the refcount the
		// reap dropped, so Close and the ghost-drop logic keep seeing this
		// entity as open.
		e = m.acct.Register(h.id, h.weight, now)
		if h.ref.open == 0 {
			h.ref.open = 1
			m.refs[h.id] = h.ref
		}
	}
	wait := now - reqAt
	if wait < 0 {
		wait = 0
	}
	m.acct.AcquireEntry(h.id, e, now)
	m.stats.onAcquire(m.stats.of(h.ref), h.name, now, wait)
	m.emit(trace.KindAcquire, now, h.id, h.name, wait)
}

// fold settles the open fast window: the wall-clock span since the window
// opened is charged to the slice owner as deferred usage, and the batched
// fast-path acquisitions land in the stats. The window then restarts at
// now. m.mu held.
func (m *Mutex) fold(now time.Duration) {
	if m.fastSince < 0 {
		return
	}
	window := now - m.fastSince
	if window < 0 {
		window = 0
	}
	m.fastSince = now
	ops := m.fastOps.Swap(0)
	owner, ok := m.acct.SliceOwner()
	if !ok || (ops == 0 && window == 0) {
		return
	}
	m.acct.FoldSliceUsage(owner, window, now)
	m.stats.fold(m.stats.entity(int64(owner)), window, ops, now)
}

// dequeue removes w from the waiter queue if it is still there (an
// intra-class grantee taken from behind the head already left it). A
// newly exposed head re-arms a u-SCL's slice-end timer. m.mu held.
func (m *Mutex) dequeue(w *waiter, now time.Duration) {
	i := slices.Index(m.queue, w)
	if i < 0 {
		return
	}
	m.queue = slices.Delete(m.queue, i, i+1)
	if i == 0 && len(m.queue) > 0 {
		m.armSliceEnd(now)
	}
}

// syncWaitersBit reconciles the waiters bit with the queue. m.mu held.
func (m *Mutex) syncWaitersBit() {
	m.word.setBit(wordWaiters, m.waitersBit(m.word.Load()) != 0)
}

// waitersBit is the waiters bit state word w must carry: wordWaiters when w
// names a slice owner and a waiter of that entity (a sibling handle) is
// queued, else 0. Only that waiter needs the owner's release on the slow
// path, which hands it the lock within the slice (takeClassWaiter). Other
// entities' waiters wait out the slice, and the slice timer ends it, so
// the owner's fast release stays one CAS while they are queued. A k-SCL
// word carries no owner bits and never sets the bit. m.mu held.
func (m *Mutex) waitersBit(w uint64) uint64 {
	owner := w & wordOwner
	if owner == 0 || m.queuedAt(core.ID(owner-1)) < 0 {
		return 0
	}
	return wordWaiters
}

// Unlock releases the mutex. If the lock slice has expired, ownership
// transfers to the head waiter and the accounting engine may ban this
// entity until others have had their proportional lock opportunity.
//
// The handle's entity must hold the lock; Unlock through any other
// entity's handle panics. A sibling of the holder (Sibling) is the same
// entity, so it may release a hold its sibling took.
func (h *Handle) Unlock() {
	m := h.m
	if m.fastUnlock(h) {
		return
	}
	m.unlockSlow(h)
}

// unlockSlow is the full release: fold, the holder's accounting release,
// a drain of any published critical sections (Handle.Do) while the held
// bit still provides mutual exclusion, and the slice boundary.
func (m *Mutex) unlockSlow(h *Handle) {
	check.Point("mu.unlock.slow")
	m.lockMu()
	defer m.unlockMu()
	// Publishers still pending when the lock goes idle must be woken to
	// self-serve; runs before unlockMu (harmless — it only reads atomics
	// and sends non-blocking signals) on every exit path below.
	defer m.combine.wakeIdle()
	word := m.word.Load()
	if word&wordHeld == 0 {
		panic("scl: Unlock of unlocked Mutex")
	}
	fastAcquired := m.fastHeld
	e := m.acct.Lookup(h.id)
	// A fast hold is the owner bits' entity's; a slow one is on the books.
	if fastAcquired && word&wordOwner != ownerBits(h.id) || !fastAcquired && !e.Holding() {
		panic("scl: Unlock of a Mutex held by another entity")
	}
	now := monotime()
	m.fold(now)
	var rel core.Release
	if fastAcquired {
		// The acquisition went through the fast path, so its usage is in
		// the fold above; run a zero-length release purely for the slice
		// boundary decision (expiry, penalty).
		m.fastHeld = false
		e = m.acct.AcquireEntry(h.id, e, now)
		rel = m.acct.ReleaseEntry(e, now)
		if m.csStart > 0 {
			rel.Hold = now - m.csStart
			m.csStart = 0
		}
	} else {
		rel = m.acct.ReleaseEntry(e, now)
		m.stats.onRelease(m.stats.of(h.ref), now)
	}
	m.emit(trace.KindRelease, now, h.id, h.name, rel.Hold)
	if m.combine.head.Load() != nil {
		// Execute published critical sections before surrendering the held
		// bit: the holder's own hold (measured above) never includes the
		// drain, and each closure is charged to its publishing entity.
		now = m.drainCombine(h, now)
	}
	// Decide the successor before the held bit drops, and retire the bit
	// in the same CAS that shuts the fast path out of the decision: a
	// free, live word naming this entity would let a sibling handle
	// fast-acquire while a grant below lands on top of it.
	ghost := h.ref.open == 0 && !m.entityQueued(h.id)
	var intra *waiter
	if !ghost && !rel.SliceExpired {
		// Work-conserving groups (paper §6): a queued sibling of the
		// slice-owning entity may take the free lock for the rest of the
		// slice — jumping the queue, since the slice is its entity's to
		// use — instead of letting the lock idle through the releaser's
		// non-critical section.
		if owner, ok := m.acct.SliceOwner(); ok && m.word.Load()&wordTransfer == 0 {
			intra = m.takeClassWaiter(owner)
		}
	}
	var raise uint64
	switch {
	case intra != nil:
		raise = wordTransfer
	case ghost || rel.SliceExpired:
		raise = m.staleBit()
	}
	// A sibling taken from behind the queue head may have been the owner's
	// last queued waiter: recompute the waiters bit in the same step.
	m.word.mutate(func(w uint64) uint64 { return w&^(wordHeld|wordWaiters) | raise | m.waitersBit(w) })
	if rel.SliceExpired {
		m.emit(trace.KindSliceEnd, now, h.id, h.name, rel.SliceUse)
	}
	if rel.Penalty > 0 {
		m.emit(trace.KindBan, now, h.id, h.name, rel.Penalty)
		m.stats.of(h.ref).onBan(rel.Penalty)
	}
	switch {
	case ghost:
		// Closed while this hold was in flight: finish the deferred
		// unregistration, which is the boundary — there is no owner left
		// to keep the slice for. Under the Handle contract the drop can
		// neither bail nor meet an unowned slice: the holder started or
		// inherited the running slice and nothing clears it under a hold;
		// every handle of the entity is closed, so no sibling is queued or
		// combining; and the release above ended the hold. So it
		// unregisters the slice owner, and hands the free lock to a queued
		// waiter or leaves it free with no slice.
		m.dropGhostLocked(h.id, now)
	case intra != nil:
		m.fastSince = -1
		intra.intra = true
		m.handoff(intra, now)
	case !rel.SliceExpired:
		// The lock idles with a live slice: open a fast window for the
		// owner and keep the slice-end timer armed.
		if m.fastOK {
			m.fastSince = now
		}
		m.armSliceEnd(now)
	default:
		m.maybeReap(now)
		m.transferLocked(now)
	}
}

// staleBit is the bit that shuts the owner fast path out of an ending
// slice: wordStale, or nothing when the fast path is disabled.
func (m *Mutex) staleBit() uint64 {
	if m.fastOK {
		return wordStale
	}
	return 0
}

// handoff records an ownership grant to w and wakes it. m.mu held.
func (m *Mutex) handoff(w *waiter, now time.Duration) {
	m.stats.of(w.h.ref).handoffs++
	m.emit(trace.KindHandoff, now, w.h.id, w.h.name, 0)
	w.grant()
}

// takeClassWaiter finds the first queued waiter of the given entity. One
// behind the head is detached now; the head stays in place until the
// grantee dequeues itself, as any granted head does. m.mu held.
func (m *Mutex) takeClassWaiter(owner core.ID) *waiter {
	i := m.queuedAt(owner)
	if i < 0 {
		return nil
	}
	w := m.queue[i]
	if i > 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
	}
	return w
}

// transferLocked hands the free, slice-expired lock to the head waiter or
// clears the slice. m.mu held.
func (m *Mutex) transferLocked(now time.Duration) {
	check.Point("mu.transfer")
	if m.word.Load()&wordTransfer != 0 {
		return
	}
	m.debugCheckCombineQuiet()
	m.fold(now)
	m.fastSince = -1
	if len(m.queue) == 0 {
		owner, owned := m.acct.SliceOwner()
		m.acct.ClearSlice()
		m.word.mutate(func(w uint64) uint64 { return w &^ (wordOwner | wordWaiters | wordStale) })
		if owned {
			m.dropGhostLocked(owner, now)
		}
		return
	}
	if w2 := m.word.mutate(func(w uint64) uint64 { return w | wordTransfer }); debugChecks && w2&wordHeld != 0 {
		debugFail("slice transfer set while a fast-path holder is active")
	}
	m.handoff(m.queue[0], now)
}

// endIdleSliceLocked folds and clears an expired slice whose owner sits
// outside the critical section with nobody queued. It stale-marks the
// state word first, so a concurrent fast-path acquire either is shut out
// or already holds the lock — the latter reported by a false return (that
// holder's release runs the boundary instead). m.mu held.
func (m *Mutex) endIdleSliceLocked(now time.Duration) bool {
	check.Point("mu.endidle")
	owner, ok := m.acct.SliceOwner()
	if !ok {
		return true
	}
	if m.fastOK {
		if w := m.word.mutate(func(x uint64) uint64 { return x | wordStale }); w&wordHeld != 0 {
			m.fold(now)
			return false
		}
	}
	m.fold(now)
	m.fastSince = -1
	// No release will report this slice end; the boundary does.
	m.emit(trace.KindSliceEnd, now, owner, "", 0)
	m.acct.ClearSlice()
	m.word.mutate(func(w uint64) uint64 { return w &^ (wordOwner | wordWaiters | wordStale) })
	m.dropGhostLocked(owner, now)
	return true
}

// armSliceEnd schedules the slice-end timer on a u-SCL, for every slice:
// it bounds the owner's lock-free regime and ends a slice whose owner
// stopped acquiring while others wait. A k-SCL never arms it: its slice
// ends where it starts, so every release, abandon, ghost drop and Close
// already runs the boundary under m.mu, and a timer would only fire at
// once to find the lock held (CheckInvariants: a queued k-SCL waiter
// always has a holder or a grant in flight). One reusable timer, armed
// at most once per slice end; now is the caller's clock reading. m.mu
// held.
func (m *Mutex) armSliceEnd(now time.Duration) {
	_, ok := m.acct.SliceOwner()
	if !m.fastOK || !ok || m.word.Load()&wordTransfer != 0 {
		return
	}
	m.timer.arm(m.acct.SliceEnd(), now)
}

// onSliceTimer runs a u-SCL's slice boundary when the slice end passes
// outside a slow-path operation: it stale-marks a fast-path owner (whose
// next operation then takes the slow path), transfers a free lock to
// waiters, or clears an abandoned slice. Stale firings are no-ops. Only
// a u-SCL arms the timer, so only a u-SCL reaches the ownerless backstop
// below; a k-SCL's queued waiters always have a holder or a grant in
// flight, which CheckInvariants asserts.
func (m *Mutex) onSliceTimer() {
	check.Point("mu.slicetimer")
	m.lockMu()
	defer m.unlockMu()
	m.timer.at = -1 // consumed; the next armSliceEnd must re-arm
	now := monotime()
	m.maybeReap(now)
	owner, ok := m.acct.SliceOwner()
	if !ok {
		// Backstop: an ownerless free lock with waiters is a stranded
		// transfer (the owner departed via Close or the GC between this
		// timer's arming and firing); grant it rather than strand them.
		if len(m.queue) > 0 && m.word.Load()&(wordHeld|wordTransfer) == 0 {
			m.transferLocked(now)
		}
		return
	}
	if !m.acct.SliceExpired(now) {
		m.armSliceEnd(now) // the slice was restarted; track the new end
		return
	}
	w := m.word.Load()
	if w&wordTransfer != 0 {
		return
	}
	if m.fastOK {
		// Shut the fast path out of the expired slice before looking at
		// the held bit: after this mutate no fast acquire can land, so a
		// held bit in the result is a holder whose release will run the
		// boundary — fold what has accumulated and leave it to that.
		w = m.word.mutate(func(x uint64) uint64 { return x | wordStale })
	}
	if w&wordHeld != 0 {
		m.fold(now)
		return
	}
	if len(m.queue) == 0 {
		m.endIdleSliceLocked(now)
		return
	}
	m.fold(now)
	// The slice ran out while the owner sat outside the critical section;
	// no release will report it, so the timer does.
	m.emit(trace.KindSliceEnd, now, owner, "", 0)
	m.transferLocked(now)
}

// Stats returns a snapshot of per-entity hold times and the lock's idle
// time, for fairness reporting. Pending fast-path accounting is folded in
// first, so snapshots are exact up to any operation in flight. With
// WithInactiveGC configured, taking a snapshot also gives the lazy
// inactive-entity GC a chance to run.
func (m *Mutex) Stats() StatsSnapshot {
	m.lockMu()
	defer m.unlockMu()
	now := monotime()
	m.fold(now)
	m.maybeReap(now)
	snap := m.stats.snapshot(now)
	snap.Registered = m.acct.Len()
	return snap
}

// Entities returns the number of entities currently registered in the
// lock's accounting. With WithInactiveGC this tracks the active set
// rather than every entity that ever registered.
func (m *Mutex) Entities() int {
	m.lockMu()
	defer m.unlockMu()
	return m.acct.Len()
}

// CheckInvariants verifies the lock's internal consistency: the
// accounting engine's conservation invariants (weight and usage totals
// match the per-entity sums, the slice owner is registered), agreement
// between the state word's waiters bit and the waiter queue (set exactly
// when a waiter of the word's slice-owner entity is queued), on a k-SCL
// that queued waiters have a holder or a grant in flight (no timer would
// rescue them), and the states of the published combining requests. It is meant for tests — the deterministic
// checker calls it between operations of every explored schedule — and
// reports the first violation found, or nil.
func (m *Mutex) CheckInvariants() error {
	m.lockMu()
	defer m.unlockMu()
	if err := m.acct.CheckInvariants(); err != nil {
		return err
	}
	w := m.word.Load()
	if want := m.waitersBit(w); w&wordWaiters != want {
		return fmt.Errorf("scl: waiters bit %v but owner's entity queued %v (word=%#x queued=%d)",
			w&wordWaiters != 0, want != 0, w, len(m.queue))
	}
	if !m.fastOK && len(m.queue) > 0 && w&(wordHeld|wordTransfer) == 0 {
		return fmt.Errorf("scl: k-SCL waiters stranded: %d queued with the lock free and no grant in flight (word=%#x)", len(m.queue), w)
	}
	for r := m.combine.head.Load(); r != nil; r = r.next.Load() {
		s := r.state.Load()
		if s < combinePending || s > combineDone {
			return fmt.Errorf("scl: combining request of entity %d in impossible state %d", r.h.id, s)
		}
		// A claimed request means a drain is executing it right now, which
		// can only happen while the combiner still owns the held bit.
		if s == combineClaimed && m.word.Load()&wordHeld == 0 {
			return fmt.Errorf("scl: claimed combining request of entity %d with the lock unheld", r.h.id)
		}
	}
	return nil
}

var _ sync.Locker = (*Handle)(nil)
