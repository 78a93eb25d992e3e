package scl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scl/internal/check"
)

// This file is the locks' seam to the deterministic checker
// (internal/check), together with the state-word, tracer, timer and
// waiter pieces both locks share. In normal operation every checker
// hook here degrades to the ordinary primitive at the cost of one
// atomic nil-check (the same always-compiled pattern as the tracer's
// nil check — a build tag cannot gate these, because
// `go test ./internal/check` must explore the untagged build everyone
// actually runs). Under an
// installed check scheduler (tests only) the hooks reroute: internal
// mutexes become scheduler-managed resources, the slice/phase timers
// run on the virtual clock, and blocking waits become predicate parks
// the explorer can reorder.
//
// A lock instance must live entirely on one side of the seam: created
// and used under an installed scheduler, or created and used without
// one. Mixing (arming a real timer, then resetting it with virtual
// delays) is not supported and is prevented by construction in the
// checker's workloads, which build a fresh lock per explored schedule.
// A lock on the real side may still outlive its use with its real timer
// armed, and a later checker run may be installed when it comes due; the
// timer fires through check.Outside, so such a firing waits until no
// checker run is installed.
//
// Beyond the helpers below, the locks mark their lock-free races as
// named check.Point decision sites the explorer reorders. The RW-SCL's
// distributed read indicator adds two to the packed-word set:
//
//   - "rw.shard.rlock": between a fast reader publishing its shard +1
//     and revalidating the state word — the sweep-vs-incoming-reader
//     race. A sweep scheduled here sees the +1 of a reader that may yet
//     undo itself, and must only ever be delayed by it, never admit a
//     writer over it.
//   - "rw.shard.runlock": before a fast release picks the shard its -1
//     lands on.
//   - "rw.phaseflip.sweep": in grantLocked, before the write-phase
//     drain sums the shards to decide whether the writer may enter.
//
// Shard selection itself is schedule-stable under the checker: it keys
// off check.GID (the managed goroutine's spawn index), not runtime
// identity, so a replayed seed takes identical branches.
//
// The combining engine (combiner, combine.go) serves Handle.Do and
// RWLock.Do with one protocol, so each lock's sites differ only in their
// prefix — "mu.combine" on a Mutex, "rw.combine" on an RWLock — and in
// the busy bits the publisher's predicate watches (held|transfer on a
// Mutex, writer-active on an RWLock):
//
//   - "<prefix>.publish": between a Do caller observing the lock busy
//     and its push CAS landing — the publish-vs-release race. A release
//     scheduled here must either drain the request or leave the lock
//     idle and wake-walk it; the checker explores both.
//   - "<prefix>.drain": in combiner.take, before the holder swaps the
//     stack empty — racing publishers land either in this batch or the
//     next.
//   - "<prefix>.handoff": after a drained batch is booked, before the
//     publishers are released with the done-store — the window where a
//     publisher must not yet observe its own completion.
//
// The publisher's wait parks at "<prefix>.wait" (and "<prefix>.claimed"
// once a combiner owns the request); its predicate reads only the
// request state and the packed word, so the explorer can wake it
// against any interleaving of the drain. The booking of a drained batch
// stays with each lock and has no sites of its own.
//
// A queued waiter of either lock blocks in parker.await, which parks on
// its granted flag under the checker: "mu.await" for a Mutex waiter,
// "rw.rwait" and "rw.wwait" for an RWLock reader and writer. Cancellation
// wins a tie with the grant, so the explorer drives the raced-grant
// branch of each lock's abandon path.
//
// The RW-SCL's inline write acquire marks "rw.wlock.inline" between
// observing a free write slice and its CAS raising the writer-active bit
// — the window where a lone writer's fast acquire may land first.
//
// The Manager threads its table-level decisions through the same seam:
// its stripe mutexes go through lockMutex/unlockMutex, and it marks
// "mgr.stripe" (stripe selected, before the table-level ban check),
// "mgr.materialize" (a key's lock is about to be created),
// "mgr.release" (between the key-lock release and the stripe booking —
// the window where a concurrent acquire can observe the key unlocked
// but the tenant not yet charged), "mgr.reap" (a stripe GC sweep) and
// "mgr.close" (tenant departure). Stripe selection hashes the key with
// a fixed FNV-1a, so it is schedule- and process-stable by
// construction.

// lockTimer abstracts the one-shot slice/phase timers so the checker
// can substitute virtual-clock timers for time.AfterFunc. Both
// *time.Timer and *check.Timer satisfy it.
type lockTimer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// boundaryTimer is a lock's one reusable slice/phase-end timer:
// re-arming per operation would spawn a goroutine per firing
// (time.AfterFunc), which dominates runtime under load. It is created
// on first arm — a virtual-clock timer under an installed check
// scheduler, time.AfterFunc through fireOutside otherwise — and calls
// fire, which the lock's constructor sets once; a k-SCL Mutex never arms
// it, so never creates one. The lock's mutex guards it.
type boundaryTimer struct {
	t    lockTimer
	at   time.Duration // absolute arm target; -1 once fired
	fire func()
}

// arm schedules fire at the absolute time end, unless the timer is
// already armed for that end. now is the caller's clock reading: every
// caller arms inside a lock transition that has already read the clock.
func (b *boundaryTimer) arm(end, now time.Duration) {
	if b.at == end {
		return
	}
	b.at = end
	delay := end - now
	if delay < 0 {
		delay = 0
	}
	if b.t != nil {
		b.t.Reset(delay)
	} else if t, ok := check.AfterFunc(delay, b.fire); ok {
		b.t = t
	} else {
		b.t = time.AfterFunc(delay, b.fireOutside)
	}
}

// fireOutside is a real timer's callback: it runs fire only while no
// checker scheduler is installed, and otherwise tries again a
// millisecond later. Its goroutine is not the checker's, so a firing
// inside a checker run would step that run's schedule from outside.
func (b *boundaryTimer) fireOutside() {
	if !check.Outside(b.fire) {
		time.AfterFunc(time.Millisecond, b.fireOutside)
	}
}

// sleepBan sleeps out a ban penalty of d, outside any lock mutex, and
// reports whether done fired first; a nil done never fires. A cancellable
// acquire must be able to walk away mid-penalty: the ban only makes an
// uncancellable wait longer. Under the checker a wake at the deadline
// reports no cancellation, and the caller's next blocking point observes
// it.
func sleepBan(d time.Duration, done <-chan struct{}) (cancelled bool) {
	if done == nil {
		if !check.Sleep(d) {
			time.Sleep(d)
		}
		return false
	}
	if cancelled, handled := check.SleepOrDone(d, done); handled {
		return cancelled
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return false
	case <-done:
		return true
	}
}

// lockWord is a lock's packed atomic state word. The fast paths CAS it
// without the lock's mutex; the slow paths change it under the mutex
// through mutate, whose CAS loop tolerates concurrent fast-path CASes.
type lockWord struct {
	atomic.Uint64
	site string // decision site of mutate's load→CAS window
}

// mutate applies f to the word and returns the installed word.
func (w *lockWord) mutate(f func(uint64) uint64) uint64 {
	for {
		old := w.Load()
		new := f(old)
		// The load→CAS window: a concurrent fast-path CAS may land here,
		// which is exactly the interleaving the checker reorders.
		check.Point(w.site)
		if old == new || w.CompareAndSwap(old, new) {
			return new
		}
	}
}

// setBit raises bit when on holds and clears it otherwise; the locks
// reconcile their waiters bits with their queues through it.
func (w *lockWord) setBit(bit uint64, on bool) {
	w.mutate(func(x uint64) uint64 {
		if on {
			return x | bit
		}
		return x &^ bit
	})
}

// tracerSlot holds a lock's Tracer. The fast paths read it without the
// lock's mutex, so it is swapped atomically.
type tracerSlot struct{ p atomic.Pointer[Tracer] }

func (s *tracerSlot) load() Tracer {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

// store installs t; nil removes the tracer. Only a tracer gets a heap
// cell: taking &t would move the parameter to the heap on every call,
// nil included.
func (s *tracerSlot) store(t Tracer) {
	if t == nil {
		s.p.Store(nil)
		return
	}
	cell := new(Tracer)
	*cell = t
	s.p.Store(cell)
}

// parker is a queued waiter's side of a grant, shared by both locks'
// waiters: the granter sets granted and signals wake under the lock's
// mutex, and the waiter blocks in await until it sees the flag.
type parker struct {
	granted atomic.Bool
	wake    chan struct{} // buffered(1): at most one pending signal
}

// await blocks until the waiter is granted (true) or done fires first
// (false; done == nil never fires). With spin set it yields briefly
// before sleeping (the Mutex's next-thread prefetch). A false return does
// not mean the grant cannot still land — the caller resolves the race
// under the lock's mutex, where grants happen.
func (p *parker) await(site string, done <-chan struct{}, spin bool) bool {
	// The Enabled guard keeps the predicate's method value, which escapes
	// to the heap, off the real runtime's path.
	if check.Enabled() {
		if ok, handled := check.WaitOrDone(site, p.granted.Load, done); handled {
			// Deterministic checker: the scheduler wakes us on grant or
			// cancellation directly; the spin/futex machinery below is
			// real-runtime plumbing with no scheduling decisions of its own.
			return ok
		}
	}
	if spin {
		for i := 0; i < 64; i++ {
			if p.granted.Load() {
				return true
			}
			runtime.Gosched()
		}
	}
	for !p.granted.Load() {
		if done == nil {
			<-p.wake
			continue
		}
		select {
		case <-p.wake:
		case <-done:
			return false
		}
	}
	return true
}

// grant hands ownership to the waiter. The lock's mutex is held.
func (p *parker) grant() {
	p.granted.Store(true)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// lockMutex acquires a lock-internal mutex through the checker hook:
// under an installed scheduler the scheduler itself provides exclusion
// (and models the acquisition as a schedule point); otherwise the real
// mutex is taken.
func lockMutex(mu *sync.Mutex) {
	if !check.LockMutex(mu) {
		mu.Lock()
	}
}

// unlockMutex releases what lockMutex acquired; the two always resolve
// to the same side of the seam within one critical section.
func unlockMutex(mu *sync.Mutex) {
	if !check.UnlockMutex(mu) {
		mu.Unlock()
	}
}

func (m *Mutex) lockMu()   { lockMutex(&m.mu) }
func (m *Mutex) unlockMu() { unlockMutex(&m.mu) }

func (l *RWLock) lockMu()   { lockMutex(&l.mu) }
func (l *RWLock) unlockMu() { unlockMutex(&l.mu) }
