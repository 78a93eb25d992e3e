package scl

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/trace"
)

// Combining critical sections (DESIGN.md §9). Handle.Do and RWLock.Do
// let a contended caller publish its critical section into a lock-free
// stack instead of queueing for a grant: the current holder, on its way
// out of the lock, drains a bounded batch and executes the closures
// itself while it still owns the lock's busy bits — one lock handoff
// amortized over the whole batch. The protocol (publish, wait, wake-walk,
// batch claim, panic backstop) is one engine, the combiner; what a drain
// books stays with each lock. SCL accounting makes this fair, not just
// fast: on a Mutex the combiner times each closure and FoldBatch charges
// every publishing entity its own measured critical-section time, with
// the same immediate penalty decision a zero-slice release would make,
// so usage shares and bans come out exactly as if each entity had
// acquired the lock itself; on an RWLock the class is the entity and the
// drain is writer hold.

// combineBatch bounds how many published critical sections one releasing
// holder executes before handing the lock on. The bound keeps any single
// release from turning into an unbounded servant loop (the combiner is a
// caller that wants to leave); overflow stays published for the next
// releasing holder.
const combineBatch = 16

// combineSpin is how many cooperative-yield rounds a publisher spins
// before parking on its wake channel. Spinning keeps the common
// publish→drain round trip futex-free; the bound keeps a crowd of
// publishers from burning CPU while a long critical section runs.
// Spinning only pays when another CPU can make progress in the
// meantime (the same rule sync.Mutex's active spin uses): on a
// single-CPU configuration every yield just rotates the run queue, so
// publishers park immediately instead.
const combineSpin = 96

// combineSpinBudget returns the publisher spin bound for the current
// processor configuration.
func combineSpinBudget() int {
	if runtime.NumCPU() > 1 && runtime.GOMAXPROCS(0) > 1 {
		return combineSpin
	}
	return 0
}

// States of a published critical section. Exactly-once execution hangs on
// the two CAS edges out of combinePending: a combiner claims
// pending→claimed and runs the closure, or the publisher withdraws
// pending→cancelled (the lock went idle under it) and runs the closure
// itself on the classic path. Exactly one of the two CASes can win.
const (
	combinePending   = int32(iota) // published, unclaimed
	combineClaimed                 // a combiner owns it and will execute it
	combineCancelled               // the publisher withdrew it (self-serve)
	combineRejected                // the combiner declined it (banned entity)
	combineDone                    // executed, charges booked
)

// combineReq is one published critical section on a combining stack.
type combineReq struct {
	next  atomic.Pointer[combineReq]
	h     *Handle // the publishing entity; nil on an RWLock (the class pays)
	fn    func()
	state atomic.Int32
	wake  chan struct{} // buffered(1): at most one pending signal
	reqAt time.Duration // publish time, for wait-time stats
	// start/end are written by the combiner before state→done (the
	// done-store publishes them to the waiting publisher).
	start, end time.Duration
}

// signal wakes the request's publisher without blocking.
func (r *combineReq) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// combiner is the combining engine: a Treiber stack of published
// critical sections plus the publisher and drain halves of the
// protocol. A lock configures it once with its state word, the busy bits
// that mean a holder is bound to drain the stack on its way out, and its
// decision-site names (checkhooks.go). Pushes are lock-free; pops happen
// only under the lock's mutex.
type combiner struct {
	head  atomic.Pointer[combineReq]
	word  *lockWord
	busy  uint64
	sites *combineSites
}

// combineSites names one lock kind's combining decision sites.
type combineSites struct{ publish, wait, claimed, drain, handoff string }

var (
	muCombineSites = combineSites{"mu.combine.publish", "mu.combine.wait",
		"mu.combine.claimed", "mu.combine.drain", "mu.combine.handoff"}
	rwCombineSites = combineSites{"rw.combine.publish", "rw.combine.wait",
		"rw.combine.claimed", "rw.combine.drain", "rw.combine.handoff"}
)

// idle reports whether no holder is bound to drain the stack.
func (c *combiner) idle() bool { return c.word.Load()&c.busy == 0 }

// publish offers fn to the current holder and waits for the outcome:
// true when a combiner executed it; false when the caller must run it
// itself through the classic acquire — the lock was idle, went idle
// with the request unclaimed, or the combiner rejected it.
func (c *combiner) publish(h *Handle, fn func()) bool {
	if c.idle() {
		return false
	}
	r := &combineReq{h: h, fn: fn, wake: make(chan struct{}, 1), reqAt: monotime()}
	c.push(r)
	return c.wait(r)
}

// push links r onto the stack.
func (c *combiner) push(r *combineReq) {
	for {
		old := c.head.Load()
		r.next.Store(old)
		// The push races the holder's drain swap and other publishers —
		// the decision site the checker reorders.
		check.Point(c.sites.publish)
		if c.head.CompareAndSwap(old, r) {
			return
		}
	}
}

// wait blocks until the published request is resolved: executed by a
// combiner (true), or bounced back to the caller (false) because the
// combiner rejected it or the lock went idle with the request still
// unclaimed. The liveness argument for parking: every transition the
// publisher must act on (done, rejected) signals wake, and every release
// path that leaves the lock idle wake-walks the stack (wakeIdle), so a
// parked publisher always has a signal coming. The withdraw CAS resolves
// the race between "lock went idle" and "a combiner claimed it" —
// exactly one side wins the pending state.
func (c *combiner) wait(r *combineReq) bool {
	if _, handled := check.WaitOrDone(c.sites.wait, func() bool {
		s := r.state.Load()
		return s != combinePending && s != combineClaimed || s == combinePending && c.idle()
	}, nil); handled {
		// Deterministic checker: the predicate parked us until the request
		// resolved or the lock went idle under a still-pending request.
		for {
			switch r.state.Load() {
			case combineDone:
				return true
			case combineRejected:
				return false
			case combinePending:
				if r.state.CompareAndSwap(combinePending, combineCancelled) {
					return false
				}
			default: // claimed in the withdraw window: execution is imminent
				check.WaitOrDone(c.sites.claimed, func() bool {
					return r.state.Load() >= combineCancelled
				}, nil)
			}
		}
	}
	budget := combineSpinBudget()
	for spins := 0; ; {
		switch r.state.Load() {
		case combineDone:
			return true
		case combineRejected:
			return false
		case combinePending:
			if c.idle() {
				// The lock went idle with our request unclaimed: withdraw
				// and self-serve. A lost CAS means a combiner claimed it
				// in the window; loop and wait for the execution.
				if r.state.CompareAndSwap(combinePending, combineCancelled) {
					return false
				}
				continue
			}
		}
		if spins < budget {
			spins++
			runtime.Gosched()
			continue
		}
		<-r.wake
	}
}

// wakeIdle wake-walks the stack after the lock went idle: still-pending
// publishers are signalled so they observe the idle word and withdraw to
// the classic path (nobody is coming to drain them). Safe without the
// lock's mutex — it only reads the stack and sends non-blocking signals.
// The seq-cst ordering argument that no publisher is missed: a publisher
// pushes only after loading a busy word, so if its push is not visible
// to this walk, the push (and the publisher's next idle check) follows
// the release that made the lock idle — the publisher sees the idle word
// itself and self-serves without a signal.
func (c *combiner) wakeIdle() {
	r := c.head.Load()
	if r == nil || !c.idle() {
		return
	}
	for ; r != nil; r = r.next.Load() {
		if r.state.Load() == combinePending {
			r.signal()
		}
	}
}

// take claims up to combineBatch pending requests off the stack (newest
// first — the stack is LIFO; fairness comes from the accounting, not
// grant order), bounces the requests reject declines to the classic
// path (nil rejects none), drops withdrawn ones, and re-publishes the
// overflow for the next combiner. The lock's mutex is held and the
// caller owns the busy bits.
func (c *combiner) take(reject func(*combineReq) bool) []*combineReq {
	check.Point(c.sites.drain)
	var batch, overflow []*combineReq
	for r := c.head.Swap(nil); r != nil; r = r.next.Load() {
		switch {
		case r.state.Load() != combinePending:
			// Withdrawn (cancelled) — the publisher self-serves; drop it.
		case reject != nil && reject(r):
			r.state.Store(combineRejected)
			r.signal()
		case len(batch) < combineBatch:
			if r.state.CompareAndSwap(combinePending, combineClaimed) {
				batch = append(batch, r)
			}
			// A lost CAS is a concurrent withdraw — drop it.
		default:
			overflow = append(overflow, r)
		}
	}
	// Re-publish the overflow, oldest first, so the stack order the next
	// combiner sees matches the original. New publishers may have pushed
	// since the swap; the CAS loop interleaves with them.
	for i := len(overflow) - 1; i >= 0; i-- {
		c.push(overflow[i])
	}
	return batch
}

// run executes a claimed batch outside the lock's mutex (the closures
// are user code) while the caller's busy bits provide mutual exclusion,
// timing each closure into r.start/r.end; it returns the summed time.
//
// Do closures are documented as must-not-panic, but an escaped panic (or
// runtime.Goexit) in one would otherwise wedge the whole lock: the busy
// bits stay up, the claimed publishers stay parked with no resolution
// coming, and the unwind skips the rest of the release. Fail loudly
// instead: resolve the batch, call abort — which retires the busy bits
// and runs the lock's boundary, leaving the lock's mutex as the unwinding
// caller expects — and let the panic continue, identified as api's. The
// failed batch's charges are dropped: fairness bookkeeping is
// best-effort on a path that is already a contract violation.
func (c *combiner) run(batch []*combineReq, api string, abort func()) time.Duration {
	ran := 0
	defer func() {
		if ran == len(batch) {
			return // every closure completed
		}
		pv := recover()
		for i, r := range batch {
			if i <= ran {
				// Executed (the ran'th closure is the one that blew up):
				// exactly-once forbids a classic-path re-run, so resolve it
				// as done, uncharged.
				r.state.Store(combineDone)
			} else {
				// Never started: bounce it to the classic path.
				r.state.Store(combineRejected)
			}
			r.signal()
		}
		abort()
		if pv != nil {
			panic(fmt.Sprintf("scl: %s critical section panicked: %v", api, pv))
		}
		// pv == nil means runtime.Goexit: the unwind continues on its own.
	}()
	var total time.Duration
	at := monotime()
	for _, r := range batch {
		r.start = at
		r.fn()
		at = monotime()
		r.end = at
		total += r.end - r.start
		ran++
	}
	return total
}

// finish releases a drained batch's publishers. The lock calls it only
// after the batch is booked, so a publisher that immediately re-acquires
// observes its own usage (and any fresh ban) on the books.
func (c *combiner) finish(batch []*combineReq) {
	check.Point(c.sites.handoff)
	for _, r := range batch {
		r.state.Store(combineDone)
		r.signal()
	}
}

// Do runs fn while holding the mutex, like Lock(); fn(); Unlock(), but
// under contention the critical section may be executed by the current
// lock holder on the caller's behalf (possibly on another goroutine)
// instead of waiting for an ownership grant. Either way fn runs exactly
// once, under mutual exclusion, and the handle's entity is charged the
// closure's measured run time — combined execution changes who runs the
// section, never who pays for it, so bans and fairness are identical to
// the classic path. A banned entity's Do first serves out its penalty.
//
// fn must not use this Mutex (or any of its Handles) and must not panic;
// it may run on the goroutine of an unrelated lock user. A panic that
// escapes fn anyway is re-raised, scl-identified, on whichever goroutine
// ran the closure; the lock itself stays usable.
func (h *Handle) Do(fn func()) {
	m := h.m
	if m.fastLock(h) {
		fn()
		if !m.fastUnlock(h) {
			m.unlockSlow(h)
		}
		return
	}
	// Publish when someone holds the lock (they will execute fn on their
	// way out). A combiner that ran fn has booked the charge.
	if m.combine.publish(h, fn) {
		return
	}
	// The lock is idle, or the request was withdrawn or rejected (banned;
	// the classic path serves the penalty out): run the section ourselves.
	h.Lock()
	fn()
	h.Unlock()
}

// drainCombine executes a batch of published critical sections while the
// releasing holder still owns the held bit, then folds the measured
// times into the accountant, stats and tracer in one re-locked step —
// per-entity acquire/release bookings at the closures' real timestamps,
// immediate ChargeWindow-style penalties, and one combine event
// identifying the combiner. Requests of banned entities are rejected:
// their classic fallback serves the ban out. Returns the post-drain
// clock for the caller's boundary logic. m.mu held on entry and exit.
func (m *Mutex) drainCombine(combiner *Handle, now time.Duration) time.Duration {
	batch := m.combine.take(func(r *combineReq) bool { return m.acct.BannedUntil(r.h.id) > now })
	if len(batch) == 0 {
		return now
	}
	// Claimed requests leave the stack; park them where Close and the GC
	// (entityCombining) still see them while m.mu is released below.
	m.draining = batch
	m.unlockMu()
	total := m.combine.run(batch, "Handle.Do", func() {
		// unlockSlow's remaining release logic is skipped by the unwind
		// (its deferred wakeIdle/unlockMu still run, balanced by this
		// lockMu): retire the held bit and run the boundary here.
		m.lockMu()
		m.draining = nil
		m.word.mutate(func(w uint64) uint64 { return w&^wordHeld | m.staleBit() })
		m.transferLocked(monotime())
	})
	m.lockMu()
	m.draining = nil
	now = monotime()
	m.emit(trace.KindCombine, now, combiner.id, combiner.name, total)
	m.stats.onCombines(combiner.ref, int64(len(batch)))
	charges := make([]core.Charge, len(batch))
	for i, r := range batch {
		charges[i] = core.Charge{ID: r.h.id, Usage: r.end - r.start}
	}
	pens := m.acct.FoldBatch(charges, now)
	for i, r := range batch {
		id, name := r.h.id, r.h.name
		wait := r.start - r.reqAt
		if wait < 0 {
			wait = 0
		}
		m.stats.onCombinedOp(r.h.ref, name, r.start, r.end, wait)
		m.emit(trace.KindAcquire, r.start, id, name, wait)
		m.emit(trace.KindRelease, r.end, id, name, r.end-r.start)
		if pens[i] > 0 {
			m.stats.onBan(r.h.ref, pens[i])
			m.emit(trace.KindBan, r.end, id, name, pens[i])
		}
	}
	m.combine.finish(batch)
	// Entities whose last handle closed while their closure was in flight
	// deferred their unregistration to this completion.
	for _, r := range batch {
		m.dropGhostLocked(r.h.id, now)
	}
	return now
}

// entityCombining reports whether entity id has a published critical
// section still awaiting execution (pending or claimed). Close and the
// inactive-entity GC treat such an entity as in flight. m.mu held (the
// stack may gain nodes concurrently, but never lose them without m.mu).
func (m *Mutex) entityCombining(id core.ID) bool {
	for r := m.combine.head.Load(); r != nil; r = r.next.Load() {
		if r.h.id != id {
			continue
		}
		if s := r.state.Load(); s == combinePending || s == combineClaimed {
			return true
		}
	}
	for _, r := range m.draining {
		if r.h.id == id && r.state.Load() == combineClaimed {
			return true
		}
	}
	return false
}

// debugCheckCombineQuiet asserts (under scldebug) that no claimed request
// sits in the combining stack at a slice boundary: drains complete — every
// claimed closure executed and booked — before ownership transfers.
// m.mu held.
func (m *Mutex) debugCheckCombineQuiet() {
	if !debugChecks {
		return
	}
	for r := m.combine.head.Load(); r != nil; r = r.next.Load() {
		if r.state.Load() == combineClaimed {
			debugFail("combining queue has a claimed request at a slice boundary")
		}
	}
}
