package scl

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbandonGrantedWakesCombiners pins the liveness contract between the
// cancellation path and the combining stack: when a cancelled waiter's
// in-flight grant is retired with nobody left to grant to (abandon →
// regrantLocked), the word goes fully idle, and a Handle.Do publisher
// that parked while the transfer bit was up must be woken to self-serve
// — no release path is coming to drain it. The test manufactures the
// held-clear→transfer-set window directly (a grant to A in flight, A not
// yet resumed), parks a publisher against it, then abandons the grant.
func TestAbandonGrantedWakesCombiners(t *testing.T) {
	// Force a zero spin budget so the publisher parks on its wake channel
	// immediately — the parked case is the one the wake-walk exists for.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	m := NewMutex(Options{Slice: 10 * time.Millisecond})
	a := m.Register() // the granted-then-cancelled waiter's entity
	p := m.Register() // the publisher

	// A grant to A is in flight: transfer bit up, waiter marked granted,
	// A has not taken the lock yet. This is exactly the state after
	// transferLocked grants the head waiter, before the grantee resumes.
	w := &waiter{h: a, wake: make(chan struct{}, 1)}
	w.granted.Store(true)
	m.lockMu()
	m.next = w
	m.word.mutate(func(x uint64) uint64 { return x | wordTransfer })
	m.syncWaitersBit()
	m.unlockMu()

	var ran atomic.Bool
	done := make(chan struct{})
	go func() {
		p.Do(func() { ran.Store(true) })
		close(done)
	}()
	// Wait until the section is published; with a zero spin budget the
	// publisher then parks (the transfer bit keeps it from withdrawing).
	deadline := time.Now().Add(5 * time.Second)
	for m.combine.head.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("publisher never published")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(2 * time.Millisecond)

	// The grantee abandons. regrantLocked finds nobody else to grant to
	// and retires the transfer — the lock is now fully idle, and only the
	// abandon path's wake-walk can unpark the publisher.
	m.abandon(w, monotime())

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do publisher wedged after an abandoned grant left the lock idle (missing wakeCombiners)")
	}
	if !ran.Load() {
		t.Fatal("published section never ran")
	}
	// The lock is idle and consistent: plain acquires work for both.
	a.Lock()
	a.Unlock()
	p.Lock()
	p.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after abandon: %v", err)
	}
}

// TestDoClosurePanicDoesNotWedge: a Do closure that panics (documented as
// forbidden) must fail loudly, not wedge the lock. The drain re-raises
// the panic scl-identified on the combiner's goroutine, resolves the
// panicking publisher as done, bounces unexecuted batch-mates back to
// the classic path (exactly-once preserved), and leaves the lock usable.
func TestDoClosurePanicDoesNotWedge(t *testing.T) {
	m := NewMutex(Options{Slice: 10 * time.Millisecond})
	holder := m.Register()
	innocent := m.Register()
	bomber := m.Register()

	holder.Lock()

	// Publish the innocent section first, the panicking one second: the
	// stack is LIFO, so the drain executes the bomber first and never
	// reaches the innocent closure.
	var innocentRuns atomic.Int32
	innocentDone := make(chan struct{})
	go func() {
		innocent.Do(func() { innocentRuns.Add(1) })
		close(innocentDone)
	}()
	waitPublished(t, m, 1)
	bomberDone := make(chan struct{})
	go func() {
		bomber.Do(func() { panic("boom") })
		close(bomberDone)
	}()
	waitPublished(t, m, 2)

	// The release drains the batch on this goroutine; the closure's panic
	// must surface here, identified as a Do contract violation.
	func() {
		defer func() {
			pv := recover()
			if pv == nil {
				t.Fatal("Unlock did not re-raise the Do closure panic")
			}
			msg, ok := pv.(string)
			if !ok || !strings.Contains(msg, "scl: Handle.Do critical section panicked") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value = %v, want an scl-identified wrap of the closure panic", pv)
			}
		}()
		holder.Unlock()
	}()

	// Both publishers must resolve: the bomber as executed, the innocent
	// via its classic-path fallback (running exactly once).
	for name, ch := range map[string]chan struct{}{"bomber": bomberDone, "innocent": innocentDone} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s publisher wedged after a batch-mate panicked", name)
		}
	}
	if n := innocentRuns.Load(); n != 1 {
		t.Fatalf("innocent section ran %d times, want exactly once", n)
	}
	// The held bit was retired and the boundary ran: the lock survives.
	for _, h := range []*Handle{holder, innocent, bomber} {
		h.Lock()
		h.Unlock()
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after closure panic: %v", err)
	}
}

// waitPublished polls until the combining stack holds n requests.
func waitPublished(t *testing.T, m *Mutex, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		count := 0
		for r := m.combine.head.Load(); r != nil; r = r.next.Load() {
			count++
		}
		if count >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("combining stack never reached %d published sections", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRWDoClosurePanicDoesNotWedge is the writer-side analogue: a
// panicking RWLock.Do closure is re-raised scl-identified on the
// draining writer's goroutine, and the write phase closes out so both
// classes can still get in.
func TestRWDoClosurePanicDoesNotWedge(t *testing.T) {
	l := NewRWLock(1, 1, 10*time.Millisecond)

	l.WLock()
	done := make(chan struct{})
	go func() {
		l.Do(func() { panic("boom") })
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for l.wcombine.head.Load() == nil {
		if time.Now().After(deadline) {
			t.Fatal("writer section never published")
		}
		time.Sleep(100 * time.Microsecond)
	}

	func() {
		defer func() {
			pv := recover()
			if pv == nil {
				t.Fatal("WUnlock did not re-raise the Do closure panic")
			}
			msg, ok := pv.(string)
			if !ok || !strings.Contains(msg, "scl: RWLock.Do critical section panicked") || !strings.Contains(msg, "boom") {
				t.Fatalf("panic value = %v, want an scl-identified wrap of the closure panic", pv)
			}
		}()
		l.WUnlock()
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Do publisher wedged after its closure panicked")
	}
	// The writer-active bit was retired: both classes still get in.
	l.WLock()
	l.WUnlock()
	l.RLock()
	l.RUnlock()
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after closure panic: %v", err)
	}
}
