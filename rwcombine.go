package scl

import (
	"time"

	"scl/trace"
)

// Writer-side combining for the RW-SCL (DESIGN.md §9). RWLock.Do is the
// class analogue of Handle.Do on the same engine (combiner, combine.go):
// a writer that finds another writer active publishes its critical
// section instead of queueing for the write phase, and the active writer
// executes a bounded batch on its way out, while the writer-active bit
// still excludes both classes. Booking is simpler than the mutex's: the
// class is the schedulable entity, so the interval accounting (charge)
// books the drain's wall-clock automatically as writer hold — there is
// no per-entity batch to fold.

// Do runs fn while holding the lock exclusive, like WLock(); fn();
// WUnlock(), but when another writer is active the critical section may
// be executed by that writer on the caller's behalf instead of waiting
// for the write phase's next grant. fn runs exactly once, under full
// mutual exclusion (no reader or writer concurrently), and its run time
// is charged to the writer class either way. fn must not use this RWLock
// and must not panic; it may run on another writer's goroutine. A panic
// that escapes fn anyway is re-raised, scl-identified, on whichever
// goroutine ran the closure; the lock itself stays usable.
func (l *RWLock) Do(fn func()) {
	if l.fastWLock(monotime()) {
		fn()
		l.WUnlock()
		return
	}
	if l.wcombine.publish(nil, fn) {
		return
	}
	// No writer was active, or the request was withdrawn (the writer-active
	// bit cleared under it) or bounced by a panicking batch-mate.
	l.WLock()
	fn()
	l.WUnlock()
}

// drainWCombine executes a batch of published writer sections while the
// caller still owns the writer-active bit, then books them: the interval
// accounting charges the drain as writer hold when the caller's release
// charge lands, so only the op count and events need explicit handling.
// l.mu held on entry and exit; returns the post-drain clock.
func (l *RWLock) drainWCombine(now time.Duration) time.Duration {
	batch := l.wcombine.take(nil)
	if len(batch) == 0 {
		return now
	}
	l.unlockMu()
	total := l.wcombine.run(batch, "RWLock.Do", func() {
		// WUnlock's remaining release logic is skipped by the unwind:
		// close out the write phase here.
		l.lockMu()
		now := monotime()
		l.releaseWriterLocked(now) // the drain ran inside the writer-active window
		l.advanceLocked(now)
		l.unlockMu()
		l.wcombine.wakeIdle()
	})
	l.lockMu()
	now = monotime()
	l.writerOps.Add(int64(len(batch)))
	l.writerCombines.Add(int64(len(batch)))
	l.emit(trace.KindCombine, now, trace.EntityWriters, total)
	for _, r := range batch {
		wait := r.start - r.reqAt
		if wait < 0 {
			wait = 0
		}
		l.emit(trace.KindAcquire, r.start, trace.EntityWriters, wait)
		l.emit(trace.KindRelease, r.end, trace.EntityWriters, r.end-r.start)
	}
	l.wcombine.finish(batch)
	return now
}
