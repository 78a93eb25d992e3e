// Package check is a deterministic concurrency checker for the real scl
// locks. It supplies a cooperative user-level scheduler (Sched) that the
// lock implementation consults through the pluggable hooks in this file:
// when no scheduler is installed every hook is a single atomic load plus
// a branch and the locks run on the ordinary Go runtime; when a Sched is
// installed (tests only), lock goroutines become serial cooperative
// tasks, time.AfterFunc timers become virtual-clock events, and every
// instrumented decision site (check.Point) becomes a scheduling point
// the explorer can reorder.
//
// The package is a leaf: it imports only the standard library, so both
// the scl root package and internal/core may depend on it.
//
// # Hook contract
//
// Hooks are valid in three states:
//
//   - No scheduler installed: all hooks are inert. Blocking hooks
//     (Sleep, WaitOrDone, LockMutex, AfterFunc, ...) report
//     handled=false and the caller falls back to the real primitive.
//   - Scheduler installed, called from a managed goroutine (one started
//     via Sched.Go, including virtual-timer callbacks): hooks are live.
//     Exactly one managed goroutine runs at a time, handing the
//     execution token back to the scheduler at each Point or blocking
//     hook, so execution is serial and replayable.
//   - Scheduler installed, called from an unmanaged goroutine (the test
//     goroutine before or after Sched.Run): blocking hooks report
//     handled=false; Now still reports the virtual clock so the lock's
//     monotime stays consistent across a whole test.
//
// An unmanaged goroutine that runs lock code while a scheduler may be
// installed — the callback of a real time.AfterFunc timer, armed by a
// lock on the real side of the seam — must run it through Outside: the
// hooks cannot tell such a goroutine from the token holder, so inside a
// checker run it would step the schedule from outside.
//
// The done channels passed to the *OrDone hooks must be close-only
// channels (context.Done-style); the hooks poll them with a
// non-blocking receive and would consume a value from a sent-to
// channel.
package check

import (
	"sync"
	"sync/atomic"
	"time"
)

// active is the process-global installed scheduler. Install/Uninstall
// are test-only; production code never writes it, so every hook costs
// one atomic load on the nil fast path (the same pattern as the scl
// Tracer hook).
var active atomic.Pointer[Sched]

// installMu orders Install after every Outside call in flight.
var installMu sync.RWMutex

// Install makes s the process-global scheduler consulted by every hook.
// It panics if another scheduler is already installed: exploration runs
// are process-wide and must not overlap (tests using Install must not
// run in parallel). It waits for a running Outside call to return.
func Install(s *Sched) {
	installMu.Lock()
	defer installMu.Unlock()
	if !active.CompareAndSwap(nil, s) {
		panic("check: a scheduler is already installed")
	}
}

// Uninstall removes s as the process-global scheduler. It panics if s
// is not the installed scheduler.
func Uninstall(s *Sched) {
	if !active.CompareAndSwap(s, nil) {
		panic("check: Uninstall of a scheduler that is not installed")
	}
}

// Outside runs fn and reports true if no scheduler is installed, and
// reports false without running fn otherwise. No scheduler is installed
// until fn returns.
func Outside(fn func()) bool {
	installMu.RLock()
	defer installMu.RUnlock()
	if active.Load() != nil {
		return false
	}
	fn()
	return true
}

// Enabled reports whether a scheduler is installed. It exists for
// cheap guards around instrumentation that would otherwise compute
// arguments for dead hooks.
func Enabled() bool { return active.Load() != nil }

// cur returns the installed scheduler and the managed goroutine
// currently holding the execution token, or nil if hooks should fall
// through to the real primitives (no scheduler, or caller unmanaged).
func cur() (*Sched, *goroutine) {
	s := active.Load()
	if s == nil {
		return nil, nil
	}
	g := s.current
	if g == nil {
		return nil, nil
	}
	return s, g
}

// GID returns the installed scheduler's id for the calling managed
// goroutine (its spawn index) and true, or 0 and false when no
// scheduler is installed or the caller is unmanaged. Ids are assigned
// in spawn order, so they are identical across replays of a seed —
// callers use them for schedule-stable decisions that would otherwise
// depend on runtime identity (the RWLock derives its reader-shard
// choice from the id, keeping every schedule-visible branch
// deterministic).
func GID() (int, bool) {
	if _, g := cur(); g != nil {
		return g.id, true
	}
	return 0, false
}

// Point marks a schedule point: under an installed scheduler the
// calling managed goroutine yields and the explorer chooses what runs
// next. The name labels the decision site in traces ("mu.fast.lock",
// "rw.grant", ...). A no-op otherwise.
func Point(name string) {
	if s, _ := cur(); s != nil {
		s.point(name)
	}
}

// Now returns the virtual clock when a scheduler is installed. Unlike
// the blocking hooks it is live even from unmanaged goroutines, so a
// lock created before Sched.Run and inspected after it sees one
// monotonic virtual timeline.
func Now() (time.Duration, bool) {
	s := active.Load()
	if s == nil {
		return 0, false
	}
	return s.now, true
}

// Sleep blocks the calling managed goroutine until the virtual clock
// reaches now+d. It reports handled=false (without blocking) when the
// caller is unmanaged.
func Sleep(d time.Duration) bool {
	s, _ := cur()
	if s == nil {
		return false
	}
	s.park("sleep", nil, s.now+d)
	return true
}

// SleepOrDone blocks until the virtual clock reaches now+d or done is
// closed. It reports cancelled=true only when done closed before the
// deadline; a wake at the deadline reports cancelled=false even if done
// is also closed, so callers loop and observe the cancellation at their
// next blocking point (exercising the late-cancel paths).
func SleepOrDone(d time.Duration, done <-chan struct{}) (cancelled, handled bool) {
	s, _ := cur()
	if s == nil {
		return false, false
	}
	deadline := s.now + d
	s.park("sleep", func() bool { return chanClosed(done) }, deadline)
	if s.now >= deadline {
		return false, true
	}
	return chanClosed(done), true
}

// WaitOrDone blocks until ready() reports true or done is closed (done
// may be nil for an uncancellable wait). Cancellation wins ties: if
// both conditions hold at wake the caller is told cancelled (ok=false),
// which is exactly the raced-grant window the abandon/regrant protocol
// must handle. ready is evaluated by the scheduler while no managed
// goroutine runs, so it must be safe to call from outside the lock's
// critical sections (atomic loads).
func WaitOrDone(name string, ready func() bool, done <-chan struct{}) (ok, handled bool) {
	s, _ := cur()
	if s == nil {
		return false, false
	}
	pred := ready
	if done != nil {
		pred = func() bool { return ready() || chanClosed(done) }
	}
	s.park(name, pred, -1)
	if done != nil && chanClosed(done) {
		return false, true
	}
	return true, true
}

// LockMutex acquires mu's virtual ownership under an installed
// scheduler, reporting handled=true; the real sync.Mutex is left
// untouched (serial execution plus the scheduler's channel handoffs
// provide both exclusion and happens-before, keeping the race detector
// sound). Acquisition is itself a schedule point. Reports handled=false
// for unmanaged callers, who must fall back to mu.Lock.
func LockMutex(mu *sync.Mutex) bool {
	s, g := cur()
	if s == nil {
		return false
	}
	s.point("mu.lock")
	for s.mutexes[mu] != nil {
		s.park("mu.lock", func() bool { return s.mutexes[mu] == nil }, -1)
	}
	s.mutexes[mu] = g
	return true
}

// UnlockMutex releases virtual ownership taken by LockMutex. It never
// blocks (releases stay non-yielding so panic-unwind defers are safe)
// and panics on unlock of a mutex the caller does not own, except
// during scheduler teardown where bookkeeping is being discarded.
func UnlockMutex(mu *sync.Mutex) bool {
	s, g := cur()
	if s == nil {
		return false
	}
	if s.mutexes[mu] != g {
		if s.stopping {
			return true
		}
		panic("check: UnlockMutex of a mutex not held by the calling goroutine")
	}
	delete(s.mutexes, mu)
	return true
}

// chanClosed reports whether a close-only channel has been closed.
func chanClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
