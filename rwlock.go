package scl

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// RWLock is a Reader-Writer Scheduler-Cooperative Lock (the paper's
// RW-SCL). Threads are classified by the work they do — readers versus
// writers — and the two classes receive alternating lock slices whose
// lengths are proportional to the configured class weights. Unlike
// reader-preference or writer-preference locks, neither class can starve
// the other: a 9:1 configuration gives readers 90% of the lock opportunity
// and writers 10%, whatever the arrival pattern (paper §4.5, Figure 11).
//
// There is no per-thread accounting (and hence no Handle): the class is
// the schedulable entity, exactly as in the paper.
//
// # The in-slice fast path
//
// While a class is alone on the lock, acquires and releases bypass the
// internal mutex. Readers use a BRAVO-style distributed read indicator:
// the reader count lives in rwShards cache-line-padded signed counters,
// each fast RLock/RUnlock touching only the calling goroutine's shard,
// so concurrent readers in a read slice never contend on a shared word.
// The packed state word keeps only the coordination bits {writer-active,
// phase, waiters} plus a phase-flip epoch; whenever any bit is up the
// fast paths stand down and readers take the packed-word slow path under
// the mutex. Writers needing the lock sweep (sum) the shards at the
// phase flip and are admitted only when the sum reaches zero — with a
// blocking bit set before the sweep, the sum is exact or transiently
// inflated, never low (see DESIGN.md "Distributed read indicator").
//
// A lone writer in a write slice keeps a single-CAS fast path on the
// state word, guarded against phase ABA by the epoch bits.
//
// Fast reader operations in real time do not read the clock — that is
// where the win comes from — so usage integrals for fast regimes are
// charged at regime granularity by the next slow-path operation; under
// the deterministic checker the virtual clock is free and fast
// operations charge exactly. The slow path credits the slice-clock
// restarts a fast regime skipped, so the incumbent class keeps at most
// the remainder of one slice, exactly as if every operation had
// refreshed the clock. Installing a Tracer disables the fast path —
// traced operations take the slow path so the event stream is identical
// with and without tracing, and the shard sums are mutex-exact. Because
// an idle slice restarts on the slice grid however late it is noticed,
// the replayed restarts land where the slow path's own would, and
// tracing changes no decision.
//
// Each class's queue, counters and slow path are indexed by its
// core.Phase, so every class transition is written once.
type RWLock struct {
	mu   sync.Mutex
	ctrl *core.RWController

	name   string
	tracer tracerSlot

	// word packs {writer-active, phase-write, waiters, phase epoch}; it
	// carries the coordination bits while the reader count lives in the
	// shards. The fast paths CAS it without mu; slow paths mutate it
	// under mu.
	word lockWord

	// wait holds each class's queued acquires, indexed by core.Phase.
	wait [2][]*rwWaiter

	// inactive (WithInactiveGC) bounds how long empty waiter slabs retain
	// their grown capacity; emptySince is when both queues last drained
	// (-1: not currently empty, or already released).
	inactive   time.Duration
	emptySince time.Duration

	// timer drives phase-end re-evaluation (onPhaseTimer).
	timer      boundaryTimer
	phaseFresh bool // no acquisition has landed yet in this slice

	// Usage integrals, Σ individual holds = ∫ holders(t) dt per class:
	// every slow-path operation charges the interval since the previous
	// one (lastAt) under the holder state it observed. Real-mode fast
	// reader operations skip the clock entirely, so a fast regime is
	// charged in one piece by the next slow operation. The per-class
	// counters are indexed by core.Phase.
	lastAt    atomic.Int64
	lastFast  atomic.Int64 // most recent fast-path op; drives slice-clock credit
	hold      [2]atomic.Int64
	ops       [2]atomic.Int64 // slow-path acquisitions; fast reader ones count in shards
	idleTotal atomic.Int64
	createdAt time.Duration

	// fastOpsSeen is the Σ shard ops total the slow path last observed;
	// a differing sum means fast reader activity happened since, and the
	// slice clock is credited through the moment of discovery. l.mu held.
	fastOpsSeen int64

	// cancelled acquisitions per class (RLockContext / WLockContext
	// returning ctx.Err()).
	cancels [2]atomic.Int64

	// wcombine is the writer-side combining engine (RWLock.Do,
	// rwcombine.go): published critical sections the active writer
	// drains on its way out.
	wcombine combiner
	// writerCombines counts closures executed through the combining path
	// (they are also included in the writer class's ops).
	writerCombines atomic.Int64

	// tracing state (slow path only — tracing disables the fast path):
	// start of the current reader busy interval and writer hold, indexed
	// by core.Phase, and of the slice phase, for event details. l.mu held.
	start      [2]time.Duration
	phaseStart time.Duration

	// The distributed read indicator. Signed per-shard reader counters:
	// a lock's +1 and its unlock's -1 may land on different shards (the
	// goroutine's stack moved, or a granted waiter released slow), so
	// individual shards may go negative — only the sum is meaningful.
	// The leading pad keeps shard 0 off the hot accounting cache line.
	_      [rwCacheLine]byte
	shards [rwShards]rwShard
}

// State-word layout. The low bits carry the phase-flip epoch.
const (
	rwWActive    = 1 << 63 // a writer holds the lock
	rwPhaseWrite = 1 << 62 // the write slice is active (mirror of ctrl.Phase)
	rwWaiters    = 1 << 61 // a wait queue is non-empty; fast path stands down
	// rwEpoch advances at every phase flip. fastWLock's CAS covers the
	// epoch, so "readers drained" observed under one epoch cannot admit
	// a writer after an intervening flip let readers back in (the ABA a
	// bare bit-compare would allow).
	rwEpoch = 1<<61 - 1
	// rwFastBlock are the bits that shut the reader fast path off.
	rwFastBlock = rwWActive | rwPhaseWrite | rwWaiters
)

// Reader-shard geometry: 8 shards of one cache line each (~1KB per
// lock). Plenty on any realistic core count for the read-slice fan-in,
// while keeping the writer's phase-flip sweep a handful of loads.
const (
	rwShardBits = 3
	rwShards    = 1 << rwShardBits
	rwCacheLine = 128
	rwShardPad  = rwCacheLine - 16
)

// rwShard is one slot of the distributed read indicator.
type rwShard struct {
	count atomic.Int64 // signed reader presence; Σ over shards = active readers
	ops   atomic.Int64 // fast-path acquisitions through this shard
	_     [rwShardPad]byte
}

// rwShardIndex picks the calling goroutine's reader shard. Under the
// deterministic checker the scheduler's goroutine id keys the choice, so
// shard selection — and with it every schedule-visible branch — replays
// bit-identically from a seed. Otherwise a few bits of the goroutine's
// stack address do (distinct goroutines live on distinct stack blocks).
// A goroutine can land on a new shard if its stack is reallocated
// mid-hold; the signed counters make that harmless. Kept out of line so
// the probe address is taken at the same stack depth from every
// call site, keeping lock- and unlock-side indices aligned.
//
//go:noinline
func rwShardIndex() int {
	if id, ok := check.GID(); ok {
		return id & (rwShards - 1)
	}
	var probe byte
	h := uintptr(unsafe.Pointer(&probe)) >> 9
	return int((h ^ (h >> 6)) & (rwShards - 1))
}

// readerSum sums the read indicator. With a blocking bit up before the
// loads the result is exact or transiently inflated by +1s about to be
// undone; with no bit up it is a heuristic snapshot.
func (l *RWLock) readerSum() int64 {
	var s int64
	for i := range l.shards {
		s += l.shards[i].count.Load()
	}
	return s
}

// fastReaderOps sums the shards' acquisition counters.
func (l *RWLock) fastReaderOps() int64 {
	var s int64
	for i := range l.shards {
		s += l.shards[i].ops.Load()
	}
	return s
}

// decReaderLocked removes one reader from the indicator on behalf of a
// slow-path release: the caller's own shard when it is positive (the
// common case — the matching fast +1 landed there), else the most
// positive shard, keeping individual counters near zero. The caller has
// established Σ > 0, so a positive shard exists. l.mu held.
func (l *RWLock) decReaderLocked() {
	sh := &l.shards[rwShardIndex()]
	if sh.count.Load() > 0 {
		sh.count.Add(-1)
		return
	}
	best, bestC := sh, int64(0)
	for i := range l.shards {
		if c := l.shards[i].count.Load(); c > bestC {
			best, bestC = &l.shards[i], c
		}
	}
	best.count.Add(-1)
}

// rwWaiter is one queued RLock or WLock call.
type rwWaiter struct {
	parker
	since time.Duration
	// shard is the read-indicator slot a granted reader is counted in —
	// recorded at enqueue on the waiter's own goroutine, so its later
	// fast RUnlock finds its own shard positive.
	shard int
}

// rwQueueKeep is the combined waiter-slab capacity an RWLock keeps even
// when WithInactiveGC releases idle queue memory: re-growing tiny slabs
// is cheaper than the churn of freeing them.
const rwQueueKeep = 16

// NewRWLock creates an RW-SCL with the given class weights (e.g. 9 and 1)
// and slice period (0 = the 2ms default, split between the classes in
// weight proportion). Options may set a name (WithName), a tracer, or
// idle-memory bounding (WithInactiveGC): an RW-SCL accounts per class
// rather than per entity, so there is no entity state to reap — the GC
// threshold instead bounds how long the waiter queues' grown backing
// arrays outlive the contention burst that grew them.
func NewRWLock(readWeight, writeWeight int64, period time.Duration, opts ...Option) *RWLock {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	now := monotime()
	l := &RWLock{
		ctrl: core.NewRWController(core.RWParams{
			Period:      period,
			ReadWeight:  readWeight,
			WriteWeight: writeWeight,
		}),
		name:       o.Name,
		inactive:   o.InactiveTimeout,
		emptySince: -1,
		createdAt:  now,
		phaseStart: now,
	}
	l.lastAt.Store(int64(now))
	l.word.site = "rw.word.mutate"
	l.wcombine = combiner{word: &l.word, busy: rwWActive, sites: &rwCombineSites}
	l.timer.fire = l.onPhaseTimer
	l.tracer.store(o.Tracer)
	return l
}

// Name returns the lock's configured label ("" if unnamed; WithName sets
// it at construction).
func (l *RWLock) Name() string { return l.name }

// SetTracer installs (or, with nil, removes) a Tracer. The reader and
// writer classes appear as the pseudo-entities trace.EntityReaders and
// trace.EntityWriters — the class is the schedulable entity in an RW-SCL.
// Release events carry the writer's hold, or for readers the length of
// the just-ended busy interval (the union of overlapping reads) when the
// last reader leaves; slice-end events fire at phase switches with the
// outgoing phase's length. While a Tracer is installed the in-slice fast
// path is disabled, so every operation is traced.
func (l *RWLock) SetTracer(t Tracer) {
	l.lockMu()
	now := monotime()
	l.start = [2]time.Duration{now, now}
	l.phaseStart = now
	l.tracer.store(t)
	l.unlockMu()
}

// charge advances the usage integrals: the interval since the previous
// charge is credited under the given holder state. Safe without mu —
// lastAt hands each interval to exactly one charger. Real-mode fast
// reader operations never call it, so during a pure fast regime the
// integrals pause and the next slow-path charge lands the whole regime
// under the state it observes — regime-granular rather than
// per-operation precision, which only the stats (not the scheduling,
// which runs off the slice clock) can see.
func (l *RWLock) charge(readers int64, wactive bool, now time.Duration) {
	dt := now - time.Duration(l.lastAt.Swap(int64(now)))
	if dt <= 0 {
		return
	}
	if readers > 0 {
		l.hold[core.PhaseRead].Add(readers * int64(dt))
	}
	if wactive {
		l.hold[core.PhaseWrite].Add(int64(dt))
	} else if readers <= 0 {
		l.idleTotal.Add(int64(dt))
	}
}

// fastRLock is the read-slice fast path: one Add on the caller's shard,
// no mutex, and — in real time — no clock read. Eligible only while the
// read slice is active with no writer holding and nobody queued, and no
// tracer installed. The protocol is publish-then-revalidate: the +1 is
// visible before the word is re-checked, so a phase-flip sweep that
// raised a blocking bit before summing either sees the +1 (and waits for
// the reader) or the reader's revalidation sees the bit (and undoes the
// +1 before queuing). No interleaving lets a writer in on top of an
// admitted fast reader.
func (l *RWLock) fastRLock() bool {
	if l.tracer.load() != nil {
		return false
	}
	if l.word.Load()&rwFastBlock != 0 {
		return false
	}
	sh := &l.shards[rwShardIndex()]
	sh.count.Add(1)
	// The window between publishing the +1 and revalidating the word —
	// the sweep-vs-incoming-reader race the checker explores.
	check.Point("rw.shard.rlock")
	if l.word.Load()&rwFastBlock != 0 {
		// A writer arrived or the slice flipped after the first check.
		// Undo and queue; a concurrent sweep may have counted the
		// transient +1, which only delays the writer until this
		// reader's slow-path advance (or the phase timer) re-sweeps.
		sh.count.Add(-1)
		return false
	}
	sh.ops.Add(1)
	if check.Enabled() {
		// The virtual clock is free: charge exactly, as the slow path
		// would, so checker-run scenarios keep per-op accounting.
		now := monotime()
		l.charge(l.readerSum()-1, false, now)
		l.lastFast.Store(int64(now))
	}
	return true
}

// fastRUnlock mirrors fastRLock for release: allowed only while nobody
// is queued (a queued writer needs the slow path's drain-and-grant). The
// -1 lands on the first positive shard scanning from the caller's own —
// usually the very shard its +1 went to, but the scan also absorbs a
// stack move or an inlining-dependent frame layout shifting the
// caller's index between lock and unlock. A release that finds no
// positive shard at all falls back to the slow path, which re-sums
// exactly and still panics on a genuine unlock-without-lock.
func (l *RWLock) fastRUnlock() bool {
	if l.tracer.load() != nil {
		return false
	}
	if l.word.Load()&rwWaiters != 0 {
		return false
	}
	idx := rwShardIndex()
	check.Point("rw.shard.runlock")
	for i := 0; i < rwShards; i++ {
		sh := &l.shards[(idx+i)&(rwShards-1)]
		if sh.count.Load() <= 0 {
			continue
		}
		sh.count.Add(-1)
		if check.Enabled() {
			now := monotime()
			l.charge(l.readerSum()+1, false, now)
			l.lastFast.Store(int64(now))
		}
		return true
	}
	return false
}

// fastWLock is the write-slice fast path for a lone writer: eligible
// only during a quiet write slice (no waiters, no holder). The shard sum
// is taken under the phase bit — which blocks new fast readers — and the
// CAS covers the epoch, so an intervening phase flip (which could have
// admitted readers and flipped back) fails the CAS instead of admitting
// a writer on top of them.
func (l *RWLock) fastWLock(now time.Duration) bool {
	for {
		w := l.word.Load()
		if w&(rwWActive|rwWaiters) != 0 || w&rwPhaseWrite == 0 || l.tracer.load() != nil {
			return false
		}
		check.Point("rw.fast.wlock")
		if l.readerSum() != 0 {
			// Readers still draining from the previous read slice (or a
			// transient +1 being undone): take the queue.
			return false
		}
		if l.word.CompareAndSwap(w, w|rwWActive) {
			l.charge(0, false, now)
			l.lastFast.Store(int64(now))
			l.ops[core.PhaseWrite].Add(1)
			return true
		}
	}
}

// fastWUnlock mirrors fastWLock for release. A non-empty combining stack
// forces the slow path, whose release drains it; a publish that lands
// after the CAS is covered by the post-release wake-walk (the publisher
// observes the cleared writer-active bit and self-serves).
func (l *RWLock) fastWUnlock(now time.Duration) bool {
	for {
		w := l.word.Load()
		if w&(rwWActive|rwWaiters) != rwWActive || w&rwPhaseWrite == 0 || l.tracer.load() != nil {
			return false
		}
		if l.wcombine.head.Load() != nil {
			return false
		}
		check.Point("rw.fast.wunlock")
		if l.word.CompareAndSwap(w, w&^rwWActive) {
			l.charge(0, true, now)
			l.lastFast.Store(int64(now))
			if l.wcombine.head.Load() != nil {
				l.wcombine.wakeIdle()
			}
			return true
		}
	}
}

// rwEntity is each class's trace pseudo-entity, indexed by core.Phase.
var rwEntity = [2]int64{trace.EntityReaders, trace.EntityWriters}

// rwSites are each class's checker decision sites, indexed by
// core.Phase: the slow acquire's entry and a queued waiter's park.
var rwSites = [2]struct{ slow, wait string }{
	{"rw.rlock.slow", "rw.rwait"},
	{"rw.wlock.slow", "rw.wwait"},
}

// RLock acquires the lock shared. During a write slice it blocks until
// the read slice begins and the writer drains.
func (l *RWLock) RLock() {
	if l.fastRLock() {
		return
	}
	l.lockSlow(context.Background(), core.PhaseRead)
}

// RLockContext acquires the lock shared, like RLock, but gives up when
// ctx is cancelled: it returns ctx.Err() and the lock is NOT held. A
// waiter that abandons detaches from the queue; a grant that raced with
// the cancellation is released immediately, so class accounting stays
// consistent either way. An already-cancelled ctx returns without
// blocking.
func (l *RWLock) RLockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.fastRLock() {
		return nil
	}
	return l.lockSlow(ctx, core.PhaseRead)
}

// lockSlow is the acquire of class p through l.mu: admitted inline, or
// queued until its grant or until ctx is done, when abandonWaiter
// resolves the wait and ctx.Err() is returned. RW waiters park at once:
// the class is the entity, so there is no next thread to prefetch.
func (l *RWLock) lockSlow(ctx context.Context, p core.Phase) error {
	check.Point(rwSites[p].slow)
	l.lockMu()
	now := monotime()
	l.advanceLocked(now)
	if l.admitInlineLocked(p, now) {
		l.unlockMu()
		return nil
	}
	wt := &rwWaiter{parker: parker{wake: make(chan struct{}, 1)}, since: now, shard: rwShardIndex()}
	l.wait[p] = append(l.wait[p], wt)
	l.word.mutate(func(x uint64) uint64 { return x | rwWaiters })
	if p == core.PhaseWrite {
		// A fastWUnlock may have landed between the inline attempt and
		// the waiters bit going up; no phase timer is armed for a
		// same-class waiter, so re-run the grant now that the fast path
		// stands down.
		l.grantLocked(now)
	}
	l.armPhaseTimer(now)
	l.unlockMu()
	if wt.await(rwSites[p].wait, ctx.Done(), false) {
		return nil
	}
	l.abandonWaiter(p, wt)
	return ctx.Err()
}

// admitInlineLocked admits an acquire of class p without queueing if
// p's slice is on and the lock is free for it, and reports whether it
// did. l.mu held.
func (l *RWLock) admitInlineLocked(p core.Phase, now time.Duration) bool {
	w := l.word.Load()
	if l.ctrl.Phase() != p || w&rwWActive != 0 {
		return false
	}
	if p == core.PhaseWrite {
		// During the write phase the phase bit blocks fast readers, so a
		// zero sweep is definitive: no reader holds and none can enter.
		// The writer-active bit goes up by a CAS from the observed word,
		// so a lone writer's fastWLock landing in between fails it (and
		// this writer queues) instead of being silently joined.
		if l.readerSum() != 0 {
			return false
		}
		check.Point("rw.wlock.inline")
		if !l.word.CompareAndSwap(w, w|rwWActive) {
			return false
		}
	}
	l.admitLocked(p, rwShardIndex(), now)
	l.emit(trace.KindAcquire, now, rwEntity[p], 0)
	return true
}

// admitLocked books one acquire of class p: a reader counted in on the
// given indicator shard, or a writer whose writer-active bit is already
// up. It is the admit of an inline acquire and of each granted waiter.
// l.mu held.
func (l *RWLock) admitLocked(p core.Phase, shard int, now time.Duration) {
	l.classEntered(now)
	var readers int64
	if p == core.PhaseRead {
		readers = l.readerSum()
		l.shards[shard].count.Add(1)
	}
	l.charge(readers, false, now)
	if readers == 0 {
		l.start[p] = now
	}
	l.ops[p].Add(1)
}

// releaseReaderLocked counts one reader out of an indicator whose sum,
// the releasing reader included, is sum: an RUnlock, or a raced grant
// handed back by abandonWaiter. l.mu held.
func (l *RWLock) releaseReaderLocked(sum int64, now time.Duration) {
	l.charge(sum, l.word.Load()&rwWActive != 0, now)
	l.decReaderLocked()
	var busy time.Duration
	if sum == 1 {
		busy = now - l.start[core.PhaseRead] // the union of the overlapping reads
	}
	l.emit(trace.KindRelease, now, trace.EntityReaders, busy)
}

// RUnlock releases a shared hold.
func (l *RWLock) RUnlock() {
	if l.fastRUnlock() {
		return
	}
	check.Point("rw.runlock.slow")
	l.lockMu()
	now := monotime()
	sum := l.quiescentSumLocked()
	if sum <= 0 {
		l.unlockMu()
		panic("scl: RUnlock without RLock")
	}
	l.releaseReaderLocked(sum, now)
	l.advanceLocked(now)
	l.unlockMu()
}

// quiescentSumLocked returns the read-indicator sum, quiescing the fast
// path first if the plain sum comes up empty: with the waiters bit up,
// in-flight fast locks revalidate and undo, and fast unlocks stand
// down, so the recount cannot miss a settled reader. The bit is
// reconciled with the queues afterwards. l.mu held.
func (l *RWLock) quiescentSumLocked() int64 {
	sum := l.readerSum()
	if sum > 0 {
		return sum
	}
	l.word.mutate(func(x uint64) uint64 { return x | rwWaiters })
	sum = l.readerSum()
	l.syncWaitersBit()
	return sum
}

// WLock acquires the lock exclusive. During a read slice it blocks until
// the write slice begins and readers drain. Multiple writers contend
// within the write slice, so a second writer can use the slice while the
// first runs non-critical code (paper Figure 12b).
func (l *RWLock) WLock() {
	if l.fastWLock(monotime()) {
		return
	}
	l.lockSlow(context.Background(), core.PhaseWrite)
}

// WLockContext acquires the lock exclusive, like WLock, but gives up when
// ctx is cancelled: it returns ctx.Err() and the lock is NOT held. See
// RLockContext for the abandonment semantics.
func (l *RWLock) WLockContext(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if l.fastWLock(monotime()) {
		return nil
	}
	return l.lockSlow(ctx, core.PhaseWrite)
}

// releaseWriterLocked ends a writer hold: the hold is charged and the
// writer-active bit retired. WUnlock, a raced grant handed back by
// abandonWaiter, and the combining drain's panic backstop all end a hold
// here; each then advances the phase. l.mu held.
func (l *RWLock) releaseWriterLocked(now time.Duration) {
	l.charge(0, true, now)
	l.word.mutate(func(x uint64) uint64 { return x &^ rwWActive })
}

// abandonWaiter resolves a cancelled waiter of class p under l.mu.
// Grants happen under l.mu, so the granted flag is stable here and tells
// the two cases apart: a waiter still queued simply detaches; a grant
// that raced the cancellation — the granter already admitted the waiter
// and removed it from the queue — is released immediately, letting
// advanceLocked re-evaluate the phase and wake whoever is eligible. The
// grant is never lost. Either way the cancellation lands in the class
// counters and the event stream, after the release and before the
// advance.
func (l *RWLock) abandonWaiter(p core.Phase, wt *rwWaiter) {
	check.Point("rw.abandon")
	l.lockMu()
	defer l.unlockMu()
	now := monotime()
	granted := wt.granted.Load()
	switch {
	case !granted:
		i := slices.Index(l.wait[p], wt)
		l.wait[p] = slices.Delete(l.wait[p], i, i+1)
		l.syncWaitersBit()
	case p == core.PhaseRead:
		l.releaseReaderLocked(l.readerSum(), now)
	default:
		l.releaseWriterLocked(now)
		l.emit(trace.KindRelease, now, trace.EntityWriters, now-l.start[p])
	}
	l.cancels[p].Add(1)
	l.emit(trace.KindAbandon, now, rwEntity[p], max(now-wt.since, 0))
	if !granted {
		return
	}
	l.advanceLocked(now)
	// A released writer cleared writer-active without a drain; wake any
	// pending Do publishers so they withdraw to the classic path (no-op
	// unless the bit is actually clear — advance may have re-granted).
	l.wcombine.wakeIdle()
}

// WUnlock releases the exclusive hold.
func (l *RWLock) WUnlock() {
	now := monotime()
	if l.fastWUnlock(now) {
		return
	}
	check.Point("rw.wunlock.slow")
	l.lockMu()
	now = monotime()
	w := l.word.Load()
	if w&rwWActive == 0 {
		l.unlockMu()
		panic("scl: WUnlock without WLock")
	}
	l.emit(trace.KindRelease, now, trace.EntityWriters, now-l.start[core.PhaseWrite])
	if l.wcombine.head.Load() != nil {
		// Drain published writer sections while the writer-active bit is
		// still ours: the closures run under full exclusion, and the
		// release charge books the drain interval as writer hold.
		now = l.drainWCombine(now)
	}
	l.releaseWriterLocked(now)
	l.advanceLocked(now)
	l.unlockMu()
	l.wcombine.wakeIdle()
}

// creditFastActivity replays the slice-clock restarts that fast-path
// operations skipped. On the slow path an operation finding its own
// class's slice expired with nobody opposite restarts the clock
// (RWController.MaybeSwitch); fast operations — which by construction run
// only while nobody is queued — never touch the controller, so before any
// phase decision the clock is advanced by whole slices up to the most
// recent fast operation. The incumbent class then keeps at most the
// remainder of one slice, the same protection the slow path gives.
//
// Fast writer operations stamp lastFast exactly (they read the clock
// anyway). Real-mode fast reader operations are clock-free, so their
// activity is detected by the shards' op-counter total moving and
// credited as of now — the moment of discovery. The controller's idle
// restart lands on the slice grid, so one replay at the last fast
// operation leaves the clock where a restart at every operation would
// have, and the incumbent keeps at most the slice containing the
// discovery. l.mu held.
func (l *RWLock) creditFastActivity(now time.Duration) {
	if l.ctrl.SliceLen(l.ctrl.Phase()) <= 0 {
		return
	}
	if ops := l.fastReaderOps(); ops != l.fastOpsSeen {
		l.fastOpsSeen = ops
		if !check.Enabled() {
			l.lastFast.Store(int64(now))
		}
	}
	l.ctrl.MaybeSwitch(time.Duration(l.lastFast.Load()), true, false)
}

// advanceLocked updates the slice phase and grants eligible waiters.
// l.mu held.
func (l *RWLock) advanceLocked(now time.Duration) {
	check.Point("rw.advance")
	l.creditFastActivity(now)
	w := l.word.Load()
	holds := [2]bool{l.readerSum() > 0, w&rwWActive != 0}
	p := l.ctrl.Phase()
	q := p.Other()
	if l.ctrl.MaybeSwitch(now, holds[p] || len(l.wait[p]) > 0, holds[q] || len(l.wait[q]) > 0) != p {
		l.phaseFresh = true
		l.emit(trace.KindSliceEnd, now, rwEntity[p], now-l.phaseStart)
		l.phaseStart = now
		l.word.mutate(func(x uint64) uint64 {
			x = x&^rwEpoch | (x+1)&rwEpoch // flip advances the epoch
			if l.ctrl.Phase() == core.PhaseWrite {
				return x | rwPhaseWrite
			}
			return x &^ rwPhaseWrite
		})
		if debugChecks {
			if err := l.checkFlipLocked(); err != nil {
				debugFail(err.Error())
			}
		}
	}
	l.grantLocked(now)
	l.armPhaseTimer(now)
	l.maybeReleaseQueues(now)
}

// maybeReleaseQueues bounds waiter-slab memory under WithInactiveGC: an
// RW-SCL has no per-entity state to reap (the class is the schedulable
// entity), so the GC analogue is returning the waiter queues' grown
// backing arrays to the allocator once both queues have sat empty past
// the threshold — a contention burst no longer pins its high-water-mark
// capacity forever. l.mu held.
func (l *RWLock) maybeReleaseQueues(now time.Duration) {
	if l.inactive <= 0 {
		return
	}
	if l.queued() {
		l.emptySince = -1
		return
	}
	if cap(l.wait[core.PhaseRead])+cap(l.wait[core.PhaseWrite]) <= rwQueueKeep {
		return
	}
	if l.emptySince < 0 {
		l.emptySince = now
		return
	}
	if now-l.emptySince >= l.inactive {
		l.wait = [2][]*rwWaiter{}
		l.emptySince = -1
	}
}

// classEntered restarts the slice clock on the first acquisition of a
// fresh slice, so drain time is not charged to the incoming class.
// l.mu held.
func (l *RWLock) classEntered(now time.Duration) {
	if l.phaseFresh {
		l.ctrl.RestartPhase(now)
		l.phaseFresh = false
	}
}

// grantLocked admits waiters permitted by the current phase, then
// reconciles the waiters bit. l.mu held.
func (l *RWLock) grantLocked(now time.Duration) {
	check.Point("rw.grant")
	defer l.syncWaitersBit()
	p := l.ctrl.Phase()
	n := len(l.wait[p])
	if l.word.Load()&rwWActive != 0 || n == 0 {
		return
	}
	if p == core.PhaseWrite {
		// The write-phase drain: sweep the read indicator under the phase
		// bit. A nonzero sum means readers are still draining (or a
		// transient fast +1 is mid-undo) — skip the grant; the drain's own
		// slow-path release, the undoing reader's advance, or the phase
		// timer re-sweeps.
		check.Point("rw.phaseflip.sweep")
		if l.readerSum() != 0 {
			return
		}
		n = 1 // writers exclude each other: only the head
		l.word.mutate(func(x uint64) uint64 { return x | rwWActive })
	}
	for _, wt := range l.wait[p][:n] {
		l.admitLocked(p, wt.shard, now)
		l.emit(trace.KindHandoff, now, rwEntity[p], 0)
		l.emit(trace.KindAcquire, now, rwEntity[p], now-wt.since)
		wt.grant()
	}
	l.wait[p] = slices.Delete(l.wait[p], 0, n)
}

// queued reports whether either class has a waiter. l.mu held.
func (l *RWLock) queued() bool {
	return len(l.wait[core.PhaseRead]) > 0 || len(l.wait[core.PhaseWrite]) > 0
}

// syncWaitersBit reconciles the waiters bit with the queues. l.mu held.
func (l *RWLock) syncWaitersBit() { l.word.setBit(rwWaiters, l.queued()) }

// armPhaseTimer schedules a phase re-evaluation at the current slice's end
// while the opposite class waits. The timer is a single reusable
// time.Timer armed at most once per slice end; now is the caller's clock
// reading. l.mu held.
func (l *RWLock) armPhaseTimer(now time.Duration) {
	if len(l.wait[l.ctrl.Phase().Other()]) > 0 {
		l.timer.arm(l.ctrl.PhaseEnd(), now)
	}
}

// onPhaseTimer re-evaluates the phase when a slice end passes without a
// lock operation to trigger it.
func (l *RWLock) onPhaseTimer() {
	check.Point("rw.phasetimer")
	l.lockMu()
	defer l.unlockMu()
	l.timer.at = -1 // consumed; the next armPhaseTimer must re-arm
	l.advanceLocked(monotime())
}

// RWStats is a point-in-time view of an RWLock's class usage.
type RWStats struct {
	// ReaderHold is Σ of individual reader hold times (overlapping reads
	// each count).
	ReaderHold time.Duration
	// WriterHold is total exclusive hold time.
	WriterHold time.Duration
	// ReaderOps and WriterOps count acquisitions per class.
	ReaderOps, WriterOps int64
	// ReaderCancels and WriterCancels count abandoned acquisitions per
	// class (RLockContext / WLockContext returning ctx.Err()).
	ReaderCancels, WriterCancels int64
	// WriterCombined counts writer critical sections executed through the
	// combining path (RWLock.Do sections another writer ran while
	// releasing). They are included in WriterOps and WriterHold too.
	WriterCombined int64
	// Idle is the time the lock was wholly unheld.
	Idle time.Duration
	// Elapsed is the time since the lock was created.
	Elapsed time.Duration
}

// CheckInvariants verifies the lock's internal consistency: readers and
// a writer never hold simultaneously, the read-indicator sum is never
// negative, the state word's waiters bit agrees with the wait queues,
// and the word's phase bit mirrors the controller's phase. It is meant
// for quiescent or serialized callers — the deterministic checker calls
// it between operations of every explored schedule, and the scenario
// wall substrate after its goroutines join — and reports the first
// violation found, or nil.
func (l *RWLock) CheckInvariants() error {
	l.lockMu()
	defer l.unlockMu()
	sum := l.readerSum()
	if w := l.word.Load(); w&rwWActive != 0 && sum > 0 {
		return fmt.Errorf("scl: writer active with %d readers holding", sum)
	}
	// The combining stack holds only unresolved requests: claimed ones
	// left it with the drained batch, and done is stored only after
	// removal, so either state reachable here means corrupted hand-off.
	for r := l.wcombine.head.Load(); r != nil; r = r.next.Load() {
		switch s := r.state.Load(); s {
		case combinePending, combineCancelled:
		default:
			return fmt.Errorf("scl: rw combine stack holds request in state %d", s)
		}
	}
	return l.checkFlipLocked()
}

// checkFlipLocked is the invariant subset safe to assert mid-flight in
// real concurrent runs (the scldebug build runs it at every phase flip):
// a writer-with-readers check would trip on a fast reader's transient
// +1 awaiting undo, but the sum going negative, the waiters bit
// disagreeing with the queues, or the phase bit disagreeing with the
// controller always means corrupted bookkeeping. l.mu held.
func (l *RWLock) checkFlipLocked() error {
	w := l.word.Load()
	if sum := l.readerSum(); sum < 0 {
		return fmt.Errorf("scl: read indicator sum %d < 0 (lost reader or double release)", sum)
	}
	queued := l.queued()
	hasBit := w&rwWaiters != 0
	if queued != hasBit {
		return fmt.Errorf("scl: rw waiters bit %v but queues populated %v (readers=%d writers=%d)",
			hasBit, queued, len(l.wait[core.PhaseRead]), len(l.wait[core.PhaseWrite]))
	}
	phaseWrite := l.ctrl.Phase() == core.PhaseWrite
	bitWrite := w&rwPhaseWrite != 0
	if phaseWrite != bitWrite {
		return fmt.Errorf("scl: phase bit says write=%v, controller says write=%v", bitWrite, phaseWrite)
	}
	return nil
}

// Stats returns a snapshot of class usage.
func (l *RWLock) Stats() RWStats {
	l.lockMu()
	defer l.unlockMu()
	now := monotime()
	w := l.word.Load()
	l.charge(l.readerSum(), w&rwWActive != 0, now)
	// Like Mutex.Stats, snapshots give the lazy idle-memory release a
	// chance to run even when the lock has gone quiet.
	l.maybeReleaseQueues(now)
	return RWStats{
		ReaderHold:     time.Duration(l.hold[core.PhaseRead].Load()),
		WriterHold:     time.Duration(l.hold[core.PhaseWrite].Load()),
		ReaderOps:      l.ops[core.PhaseRead].Load() + l.fastReaderOps(),
		WriterOps:      l.ops[core.PhaseWrite].Load(),
		ReaderCancels:  l.cancels[core.PhaseRead].Load(),
		WriterCancels:  l.cancels[core.PhaseWrite].Load(),
		WriterCombined: l.writerCombines.Load(),
		Idle:           time.Duration(l.idleTotal.Load()),
		Elapsed:        now - l.createdAt,
	}
}
