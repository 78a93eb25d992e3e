package scl

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scl/trace"
)

// waitEntities polls Stats (which drives the lazy GC) until the lock's
// registered-entity count drops to at most want, or two seconds pass.
func waitEntities(t *testing.T, m *Mutex, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.Entities() > want && time.Now().Before(deadline) {
		m.Stats()
		time.Sleep(2 * time.Millisecond)
	}
	if n := m.Entities(); n > want {
		t.Fatalf("%d entities registered, want <= %d", n, want)
	}
}

// TestInactiveGCReapsIdle is the deterministic core of the entity GC:
// entities that stop using the lock and idle past the threshold are
// removed from the accounting, their per-entity stats entries go with
// them, the reap counters record the departure, and a reap trace event
// fires per entity.
func TestInactiveGCReapsIdle(t *testing.T) {
	tr := &recTracer{}
	m := NewMutex(
		Options{Slice: time.Millisecond, Tracer: tr},
		WithInactiveGC(10*time.Millisecond),
	)
	const n = 8
	for i := 0; i < n; i++ {
		h := m.Register()
		h.Lock()
		h.Unlock()
	}
	waitEntities(t, m, 0)

	snap := m.Stats()
	if snap.Reaped != n {
		t.Errorf("Reaped = %d, want %d", snap.Reaped, n)
	}
	if got := len(snap.Hold); got != 0 {
		t.Errorf("%d per-entity stats entries survived the reap", got)
	}
	var reaps int
	for _, ev := range tr.events() {
		if ev.Kind == trace.KindReap {
			reaps++
			if ev.Detail < 10*time.Millisecond {
				t.Errorf("reap event idle %v below the 10ms threshold", ev.Detail)
			}
		}
	}
	if reaps != n {
		t.Errorf("%d reap events traced, want %d", reaps, n)
	}
}

// TestGCDisabledKeepsEntities is the control: without WithInactiveGC a
// departed-but-unclosed entity is kept forever.
func TestGCDisabledKeepsEntities(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	h := m.Register()
	h.Lock()
	h.Unlock()
	time.Sleep(20 * time.Millisecond)
	if snap := m.Stats(); snap.Registered != 1 || snap.Reaped != 0 {
		t.Fatalf("Registered = %d, Reaped = %d without GC, want 1 and 0",
			snap.Registered, snap.Reaped)
	}
}

// TestReapedHandleReturns exercises the re-registration path: a handle
// whose entity was reaped must keep working — its next acquisition
// re-registers the entity through the join-credit floor, restores the
// sibling refcount, and a later Close still removes everything.
func TestReapedHandleReturns(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond}, WithInactiveGC(5*time.Millisecond))
	h := m.Register()
	h.Lock()
	h.Unlock()
	waitEntities(t, m, 0)

	// The handle outlived its accounting state; using it again must be
	// indistinguishable from a fresh registration.
	h.Lock()
	h.Unlock()
	if n := m.Entities(); n != 1 {
		t.Fatalf("%d entities after a reaped handle reacquired, want 1", n)
	}
	h.Close()
	if n := m.Entities(); n != 0 {
		t.Fatalf("%d entities after Close, want 0", n)
	}

	// Close on a handle that was reaped while idle must also be clean —
	// no negative refcount, no phantom re-registration.
	h2 := m.Register()
	h2.Lock()
	h2.Unlock()
	waitEntities(t, m, 0)
	h2.Close()
	if n := m.Entities(); n != 0 {
		t.Fatalf("%d entities after Close of a reaped handle, want 0", n)
	}
}

// TestCloseWhileHoldingConverges covers the deferred-unregistration
// bugfix: Close while the entity holds the lock (slow-path hold) must not
// strand weight in the accountant — the final Unlock finishes the
// unregistration with the same books an ordinary Close produces.
func TestCloseWhileHoldingConverges(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	peer := m.Register()
	defer peer.Close()
	h := m.Register()

	h.Lock()
	h.Close()
	if n := m.Entities(); n != 2 {
		t.Fatalf("%d entities while closed holder is in flight, want 2 (deferred)", n)
	}
	h.Unlock()
	if n := m.Entities(); n != 1 {
		t.Fatalf("%d entities after the closed holder released, want 1", n)
	}
}

// TestCloseWhileFastPathHeldConverges is the same convergence through the
// lock-free fast path: the hold is invisible to the accountant (deferred
// accounting), so Close must shut the release out of its fast path with
// the stale bit; the slow-path release then observes the closed refcount.
func TestCloseWhileFastPathHeldConverges(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	h := m.Register()
	h.Lock()
	h.Unlock() // h now owns the slice; the next acquire is lock-free
	h.Lock()
	h.Close()
	h.Unlock()
	if n := m.Entities(); n != 0 {
		t.Fatalf("%d entities after fast-path holder closed and released, want 0", n)
	}
}

// TestCloseWhileQueuedConverges: Close while a waiter of the entity is
// parked in the queue defers the unregistration to the waiter's own
// release (or abandonment), never dropping the grant.
func TestCloseWhileQueuedConverges(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	a := m.Register()
	b := m.Register()
	defer a.Close()

	a.Lock()
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(entered)
		b.Lock() // parks behind a
		b.Unlock()
		close(done)
	}()
	<-entered
	time.Sleep(10 * time.Millisecond) // let b reach the waiter queue
	b.Close()                         // deferred: b is queued
	a.Unlock()
	<-done
	if n := m.Entities(); n != 1 {
		t.Fatalf("%d entities after the closed waiter finished, want 1 (a)", n)
	}
}

// TestCloseOfIdleOwnerHandsOff: an entity that owns the live slice but
// sits outside the critical section closes its last handle while another
// entity's waiter is queued to wait out that slice. The departure ends
// the slice, so the free lock must go to the waiter at once — the
// hour-long slice's timer would never do it in time.
func TestCloseOfIdleOwnerHandsOff(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	a := m.Register()
	b := m.Register()
	a.Lock()
	a.Unlock() // a owns the live slice; the lock is free
	got := make(chan struct{})
	go func() {
		b.Lock()
		close(got)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for QueueLen(m) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("b never queued behind a's slice")
		}
		time.Sleep(100 * time.Microsecond)
	}
	a.Close()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("the queued waiter was not granted when the slice owner closed")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	b.Unlock()
	if n := m.Entities(); n != 1 {
		t.Fatalf("registered entities = %d, want 1 (a unregistered)", n)
	}
}

// TestCloseWhileBannedNoStaleWeight: Close during a ban must remove the
// entity's weight immediately. If stale weight survived, the remaining
// lone entity's share would stay at 1/2 and it would keep getting banned
// for using "more than its share" of a lock it no longer contends for.
func TestCloseWhileBannedNoStaleWeight(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	hog := m.Register()
	peer := m.Register()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			peer.Lock()
			time.Sleep(time.Millisecond)
			peer.Unlock()
		}
	}()
	time.Sleep(5 * time.Millisecond)
	hog.Lock()
	time.Sleep(40 * time.Millisecond) // over-use against the peer → ban
	hog.Unlock()
	hog.Close() // banned, not holding, not queued: unregister now
	close(stop)
	wg.Wait()
	if n := m.Entities(); n != 1 {
		t.Fatalf("%d entities after banned hog closed, want 1", n)
	}

	// The peer is alone; quick reacquisitions must never be penalized.
	peer.Lock()
	peer.Unlock()
	start := time.Now()
	peer.Lock()
	peer.Unlock()
	if gap := time.Since(start); gap > 5*time.Millisecond {
		t.Fatalf("lone survivor delayed %v after hog closed — stale weight", gap)
	}
	peer.Close()
}

// TestRWLockQueueSlabRelease covers the RW-SCL analogue of the entity
// GC: a class-based lock has no entity state to reap, so WithInactiveGC
// instead bounds how long the waiter queues' grown backing arrays outlive
// the contention burst that grew them.
func TestRWLockQueueSlabRelease(t *testing.T) {
	l := NewRWLock(1, 1, time.Millisecond, WithInactiveGC(10*time.Millisecond))

	// A burst: hold the write lock so a crowd of readers piles into the
	// queue, growing the reader slab well past rwQueueKeep. While the
	// writer is active no reader can be granted (grantLocked's read
	// branch refuses under rwWActive) and the fast path is blocked, so
	// every reader deterministically lands in waitR — wait for the full
	// crowd before releasing, which guarantees the slab outgrew
	// rwQueueKeep rather than polling and skipping when it didn't.
	const crowd = rwQueueKeep * 4
	l.WLock()
	var wg sync.WaitGroup
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.RLock()
			l.RUnlock()
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		l.mu.Lock()
		queued := len(l.waitR)
		l.mu.Unlock()
		if queued == crowd {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers queued behind the held write lock", queued, crowd)
		}
		time.Sleep(time.Millisecond)
	}
	l.WUnlock()
	wg.Wait()

	// Idle past the threshold; snapshots drive the lazy release (the
	// first marks the queues empty, a later one frees the slabs).
	released := false
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		l.Stats()
		l.mu.Lock()
		released = cap(l.waitR)+cap(l.waitW) == 0
		l.mu.Unlock()
		if released {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !released {
		l.mu.Lock()
		got := cap(l.waitR) + cap(l.waitW)
		l.mu.Unlock()
		t.Fatalf("waiter slabs hold %d capacity after idling past the threshold, want released", got)
	}
}

// TestMutexStressChurn is the entity-churn soak (tentpole acceptance):
// waves of short-lived entities come and go without ever calling Close
// while two long-lived survivors keep working. The registered-entity
// count must stay proportional to the active set (never the cumulative
// churn), no grant may be lost, the books must stay consistent (checked
// live under -tags scldebug), and the survivors' mutual fairness must be
// unaffected by the churn. The default run churns tens of thousands of
// entities; a soak (`go test -race -run Churn -scl.stress 30s .`)
// crosses 10^5+.
func TestMutexStressChurn(t *testing.T) {
	const threshold = 2 * time.Millisecond
	m := NewMutex(Options{Slice: 50 * time.Microsecond}, WithInactiveGC(threshold))

	var guarded int64 // mutated only inside the critical section
	var inCS atomic.Int32
	var violations atomic.Int64
	cs := func(h *Handle) {
		h.Lock()
		if inCS.Add(1) != 1 {
			violations.Add(1)
		}
		guarded++
		inCS.Add(-1)
		h.Unlock()
	}

	// Survivor fairness is measured in completed operations, not snapshot
	// hold times: a survivor that the OS scheduler stalls past the reap
	// threshold may legitimately lose its stats entry to the GC (its
	// handle keeps working), so hold-based Jain would be measuring the
	// reap, not the lock.
	stop := make(chan struct{})
	var survivors sync.WaitGroup
	var survivorOps [2]atomic.Int64
	for i := 0; i < 2; i++ {
		h := m.Register()
		survivors.Add(1)
		go func(i int, h *Handle) {
			defer survivors.Done()
			defer h.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cs(h)
				survivorOps[i].Add(1)
				time.Sleep(100 * time.Microsecond)
			}
		}(i, h)
	}

	// Registered count may lag the active set by the reap threshold plus
	// the rate limiter (threshold/4), during which up to
	// churnWave goroutines per wave pile up un-reaped.
	const churnWave = 16
	wavesPerThreshold := int(threshold/(50*time.Microsecond)) + 1
	bound := 2 + churnWave*(wavesPerThreshold+2)

	var churned int64
	var maxSeen int
	deadline := time.Now().Add(stressDuration())
	for time.Now().Before(deadline) {
		var wave sync.WaitGroup
		for i := 0; i < churnWave; i++ {
			wave.Add(1)
			go func() {
				defer wave.Done()
				h := m.Register() // never closed: only the GC cleans up
				cs(h)
			}()
		}
		wave.Wait()
		churned += churnWave
		if n := m.Entities(); n > maxSeen {
			maxSeen = n
		}
	}
	close(stop)
	survivors.Wait()

	waitEntities(t, m, 0) // no accountant leak: everything reaps

	final := m.Stats()
	ops0, ops1 := survivorOps[0].Load(), survivorOps[1].Load()
	ratio := float64(min(ops0, ops1)) / float64(max(ops0, ops1))
	t.Logf("churned %d entities, max registered %d (bound %d), reaped %d, survivor ops %d/%d (ratio %.3f)",
		churned, maxSeen, bound, final.Reaped, ops0, ops1, ratio)
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d mutual-exclusion violations", v)
	}
	if maxSeen > bound {
		t.Errorf("registered count peaked at %d, want <= active-set bound %d", maxSeen, bound)
	}
	if final.Reaped < churned/2 {
		t.Errorf("only %d of %d churned entities reaped", final.Reaped, churned)
	}
	if ratio < 0.5 {
		t.Errorf("survivor progress ratio %.3f (%d vs %d ops), want >= 0.5 — churn skewed fairness",
			ratio, ops0, ops1)
	}
}
