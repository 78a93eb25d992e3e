package sim

import (
	"slices"
	"time"

	"scl/internal/core"
)

// RWSCL simulates the Reader-Writer Scheduler-Cooperative Lock: threads are
// classified by the work they do (readers vs writers), and the two classes
// receive alternating lock slices whose lengths are proportional to the
// configured class weights (paper §4.5). Within a class's slice its members
// acquire freely (readers share; writers exclude each other); the other
// class spins until its slice starts and the current class drains.
type RWSCL struct {
	e    *Engine
	ctrl *core.RWController

	readers int   // active readers
	writer  *Task // active writer

	wait [2][]*Task // spinning acquires per class, indexed by core.Phase

	phaseEvtGen uint64

	holds holdTimes
	stats *LockStats
}

// NewRWSCL creates an RW-SCL with the given class weights (e.g. 9 and 1)
// and slice period (0 = the 2ms default).
func NewRWSCL(e *Engine, period time.Duration, readWeight, writeWeight int64) *RWSCL {
	return &RWSCL{
		e: e,
		ctrl: core.NewRWController(core.RWParams{
			Period:      period,
			ReadWeight:  readWeight,
			WriteWeight: writeWeight,
		}),
		holds: holdTimes{},
		stats: newLockStats(e),
	}
}

// Stats returns the lock's statistics.
func (l *RWSCL) Stats() *LockStats { return l.stats }

// Controller exposes the slice controller (tests, ablations).
func (l *RWSCL) Controller() *core.RWController { return l.ctrl }

// RLock acquires the lock shared. Readers enter freely during a read
// slice; during a write slice they spin until the read slice starts.
func (l *RWSCL) RLock(t *Task) { l.lock(t, core.PhaseRead) }

// WLock acquires the lock exclusive. Writers contend with each other
// within the write slice (so a second writer can use the slice while the
// first executes non-critical code, paper Figure 12b).
func (l *RWSCL) WLock(t *Task) { l.lock(t, core.PhaseWrite) }

// lock acquires for class p: at once while p's slice is on and the lock
// is free for it, else by spinning until grantEligible grants it.
func (l *RWSCL) lock(t *Task, p core.Phase) {
	start := t.e.now
	t.Compute(l.e.cfg.Cost.AtomicOp) // reader count increment or writer-bit CAS
	l.advance()
	if l.ctrl.Phase() == p && l.free(p) {
		l.ctrl.Enter(l.e.now)
		l.enter(p, t)
	} else {
		l.wait[p] = append(l.wait[p], t)
		l.armPhaseEnd()
		t.spin() // granted in grantEligible, already counted in
	}
	t.holding++
	l.holds.start(t)
	l.stats.onAcquire(t)
	l.stats.onWait(t, t.e.now-start)
}

// free reports whether class p may enter beside the current holders:
// nobody excludes a reader but a writer, and a writer needs the lock
// empty.
func (l *RWSCL) free(p core.Phase) bool {
	return l.writer == nil && (p == core.PhaseRead || l.readers == 0)
}

// enter counts t in as a holder of class p.
func (l *RWSCL) enter(p core.Phase, t *Task) {
	if p == core.PhaseRead {
		l.readers++
	} else {
		l.writer = t
	}
}

// RUnlock releases a shared hold.
func (l *RWSCL) RUnlock(t *Task) {
	t.Compute(l.e.cfg.Cost.AtomicOp)
	l.readers--
	t.holding--
	l.stats.onRelease(t, l.holds.end(t))
	l.advance()
}

// WUnlock releases the exclusive hold.
func (l *RWSCL) WUnlock(t *Task) {
	if l.writer != t {
		panic("sim: RWSCL.WUnlock by non-writer")
	}
	t.Compute(l.e.cfg.Cost.AtomicOp)
	l.writer = nil
	t.holding--
	l.stats.onRelease(t, l.holds.end(t))
	l.advance()
}

// advance updates the slice phase and grants eligible waiters. Called
// after every state change and at slice boundaries.
func (l *RWSCL) advance() {
	// Never switch away while the other class still drains; the controller
	// handles expiry, we gate on the drain.
	p := l.ctrl.Phase()
	if p == core.PhaseRead && l.writer != nil {
		return
	}
	holds := [2]bool{l.readers > 0, l.writer != nil}
	q := p.Other()
	l.ctrl.MaybeSwitch(l.e.now, holds[p] || len(l.wait[p]) > 0, holds[q] || len(l.wait[q]) > 0)
	l.grantEligible()
	l.armPhaseEnd()
}

// grantEligible hands the lock to waiters allowed by the current phase:
// all waiting readers during a read slice (once the writer drains), or one
// waiting writer during a write slice (once readers drain).
func (l *RWSCL) grantEligible() {
	handoff := l.e.cfg.Cost.handoff(len(l.wait[core.PhaseRead])+len(l.wait[core.PhaseWrite]), len(l.e.cpus))
	p := l.ctrl.Phase()
	n := len(l.wait[p])
	if n == 0 || !l.free(p) {
		return
	}
	if p == core.PhaseWrite {
		n = 1
	}
	l.ctrl.Enter(l.e.now)
	for _, t := range l.wait[p][:n] {
		l.enter(p, t)
		l.e.grantSpin(t, handoff)
	}
	l.wait[p] = slices.Delete(l.wait[p], 0, n)
}

// armPhaseEnd schedules a phase re-evaluation at the current slice's end
// when the opposite class waits; without it a slice with no releases would
// never hand over.
func (l *RWSCL) armPhaseEnd() {
	if len(l.wait[l.ctrl.Phase().Other()]) == 0 {
		return
	}
	l.phaseEvtGen++
	gen := l.phaseEvtGen
	at := l.ctrl.PhaseEnd()
	l.e.schedule(at, func() {
		if gen != l.phaseEvtGen {
			return
		}
		l.advance()
	})
}

var _ RWLocker = (*RWSCL)(nil)

// RWMutex simulates a pthread-style reader-preference reader-writer lock:
// readers always enter when no writer is active — even past waiting
// writers — so a steady reader stream starves writers (paper §5.5.2,
// Figure 11 "vanilla").
type RWMutex struct {
	e       *Engine
	readers int
	writer  *Task
	waitR   []*mutexWaiter
	waitW   []*mutexWaiter
	holds   holdTimes
	stats   *LockStats
}

// NewRWMutex creates the baseline reader-preference rwlock.
func NewRWMutex(e *Engine) *RWMutex {
	return &RWMutex{e: e, holds: holdTimes{}, stats: newLockStats(e)}
}

// Stats returns the lock's statistics.
func (l *RWMutex) Stats() *LockStats { return l.stats }

// RLock acquires shared; it only waits while a writer is active.
func (l *RWMutex) RLock(t *Task) {
	start := t.e.now
	for {
		t.Compute(l.e.cfg.Cost.AtomicOp)
		if l.writer == nil {
			break
		}
		w := &mutexWaiter{t: t}
		l.waitR = append(l.waitR, w)
		t.Compute(l.e.cfg.Cost.ParkCPU)
		if w.permit {
			continue
		}
		if l.writer == nil {
			l.removeR(w)
			continue
		}
		w.parked = true
		t.park()
	}
	l.readers++
	t.holding++
	l.holds.start(t)
	l.stats.onAcquire(t)
	l.stats.onWait(t, t.e.now-start)
}

// RUnlock releases shared; the last reader gives a waiting writer a chance
// (which incoming readers will usually beat — reader preference).
func (l *RWMutex) RUnlock(t *Task) {
	t.Compute(l.e.cfg.Cost.AtomicOp)
	l.readers--
	t.holding--
	l.stats.onRelease(t, l.holds.end(t))
	if l.readers == 0 && len(l.waitW) > 0 {
		l.wakeOneWriter(t)
	}
}

// WLock acquires exclusive, waiting for all readers and writers to leave.
func (l *RWMutex) WLock(t *Task) {
	start := t.e.now
	for {
		t.Compute(l.e.cfg.Cost.AtomicOp)
		if l.writer == nil && l.readers == 0 {
			break
		}
		w := &mutexWaiter{t: t}
		l.waitW = append(l.waitW, w)
		t.Compute(l.e.cfg.Cost.ParkCPU)
		if w.permit {
			continue
		}
		if l.writer == nil && l.readers == 0 {
			l.removeW(w)
			continue
		}
		w.parked = true
		t.park()
	}
	l.writer = t
	t.holding++
	l.holds.start(t)
	l.stats.onAcquire(t)
	l.stats.onWait(t, t.e.now-start)
}

// WUnlock releases exclusive and wakes all waiting readers (preference)
// plus one writer.
func (l *RWMutex) WUnlock(t *Task) {
	if l.writer != t {
		panic("sim: RWMutex.WUnlock by non-writer")
	}
	l.writer = nil
	t.holding--
	l.stats.onRelease(t, l.holds.end(t))
	woke := false
	for _, w := range l.waitR {
		w.permit = true
		if w.parked {
			l.e.unparkJitter(w.t)
		}
		woke = true
	}
	l.waitR = l.waitR[:0]
	if !woke && len(l.waitW) > 0 {
		l.wakeOneWriter(t)
		return
	}
	if woke {
		t.Compute(l.e.cfg.Cost.FutexWake)
	} else {
		t.Compute(l.e.cfg.Cost.AtomicOp)
	}
}

func (l *RWMutex) wakeOneWriter(waker *Task) {
	w := l.waitW[0]
	l.waitW = l.waitW[1:]
	w.permit = true
	if w.parked {
		l.e.unparkJitter(w.t)
	}
	waker.Compute(l.e.cfg.Cost.FutexWake)
}

func (l *RWMutex) removeR(w *mutexWaiter) {
	for i, x := range l.waitR {
		if x == w {
			l.waitR = append(l.waitR[:i], l.waitR[i+1:]...)
			return
		}
	}
}

func (l *RWMutex) removeW(w *mutexWaiter) {
	for i, x := range l.waitW {
		if x == w {
			l.waitW = append(l.waitW[:i], l.waitW[i+1:]...)
			return
		}
	}
}

var _ RWLocker = (*RWMutex)(nil)
