package scl

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scl/trace"
)

// recTracer records every event in order (thread-safe: the fast path may
// invoke hooks without the lock's internal mutex).
type recTracer struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (r *recTracer) add(ev trace.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, ev)
	r.mu.Unlock()
}

func (r *recTracer) OnAcquire(ev trace.Event)  { r.add(ev) }
func (r *recTracer) OnRelease(ev trace.Event)  { r.add(ev) }
func (r *recTracer) OnSliceEnd(ev trace.Event) { r.add(ev) }
func (r *recTracer) OnBan(ev trace.Event)      { r.add(ev) }
func (r *recTracer) OnHandoff(ev trace.Event)  { r.add(ev) }
func (r *recTracer) OnAbandon(ev trace.Event)  { r.add(ev) }
func (r *recTracer) OnReap(ev trace.Event)     { r.add(ev) }
func (r *recTracer) OnCombine(ev trace.Event)  { r.add(ev) }

func (r *recTracer) events() []trace.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]trace.Event(nil), r.evs...)
}

// normalize renders the deterministic parts of an event stream: kind and
// entity name, one line per event. Timestamps and durations are wall-clock
// and excluded.
func normalize(evs []trace.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%s %s\n", ev.Kind, ev.Name)
	}
	return b.String()
}

// TestScriptedScheduleEventStream runs a fixed, sequential lock schedule
// and compares the tracer event stream against a golden transcript. The
// golden was recorded on the pre-fast-path implementation; the atomic
// slice-owner fast path must reproduce it byte-for-byte (acceptance
// criterion: identical event streams before/after the fast path).
func TestScriptedScheduleEventStream(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: 40 * time.Millisecond, Name: "scripted", Tracer: rec})
	a := m.Register().SetName("A")
	b := m.Register().SetName("B")

	// Script: A takes the slice and re-acquires three times (fast-path
	// territory), holds through the slice end on the fourth, draws a ban
	// (it used 100% against a registered peer), then B runs a slice.
	for i := 0; i < 3; i++ {
		a.Lock()
		time.Sleep(time.Millisecond)
		a.Unlock()
	}
	a.Lock()
	time.Sleep(45 * time.Millisecond) // overruns the 40ms slice
	a.Unlock()                        // slice end + ban computed here
	b.Lock()                          // fresh slice for B (A's slice is over)
	time.Sleep(time.Millisecond)
	b.Unlock()

	got := normalize(rec.events())
	want := strings.Join([]string{
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"acquire A",
		"release A",
		"slice-end A",
		"ban A",
		"acquire B",
		"release B",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The same schedule must land in the stats counters exactly.
	s := m.Stats()
	if s.Acquisitions[a.ID()] != 4 || s.Acquisitions[b.ID()] != 1 {
		t.Fatalf("acquisitions = %d/%d, want 4/1", s.Acquisitions[a.ID()], s.Acquisitions[b.ID()])
	}
	if s.Bans[a.ID()] != 1 || s.BanTime[a.ID()] == 0 {
		t.Fatalf("bans = %d (%v), want 1", s.Bans[a.ID()], s.BanTime[a.ID()])
	}
	if s.Hold[a.ID()] < 45*time.Millisecond {
		t.Fatalf("A hold = %v, want >= 45ms", s.Hold[a.ID()])
	}
	if s.Hold[b.ID()] < time.Millisecond {
		t.Fatalf("B hold = %v, want >= 1ms", s.Hold[b.ID()])
	}
}

// TestScriptedKSCLEventStream is the same idea on a k-SCL (zero slice):
// every release is a slice boundary, so the transcript interleaves
// slice-end events with each release and exercises ownership transfer.
func TestScriptedKSCLEventStream(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: -1, Name: "kscl", Tracer: rec})
	a := m.Register().SetName("A")

	// A lone entity on a k-SCL: each release ends the slice, no bans.
	for i := 0; i < 3; i++ {
		a.Lock()
		a.Unlock()
	}
	got := normalize(rec.events())
	want := strings.Join([]string{
		"acquire A",
		"release A",
		"slice-end A",
		"acquire A",
		"release A",
		"slice-end A",
		"acquire A",
		"release A",
		"slice-end A",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	s := m.Stats()
	if s.Acquisitions[a.ID()] != 3 {
		t.Fatalf("acquisitions = %d, want 3", s.Acquisitions[a.ID()])
	}
	if s.Bans[a.ID()] != 0 {
		t.Fatalf("lone entity banned %d times", s.Bans[a.ID()])
	}
}

// sliceEndHook is a recording Tracer whose OnSliceEnd runs fn instead.
type sliceEndHook struct {
	recTracer
	fn func()
}

func (h *sliceEndHook) OnSliceEnd(trace.Event) { h.fn() }

// TestSiblingFastLockShutOutAtSliceEnd: a release that ends the slice
// must shut the owner fast path out in the same step that drops the
// held bit. A sibling handle of the slice owner that fast-acquired in
// between would be joined by the slice transfer to the queued entity —
// two holders. The slice timer is stopped so only the release runs the
// boundary, and the sibling's fast acquire is attempted from inside that
// release (the slice-end event), which is the window. The checker
// cannot reach it: virtual slice timers fire on time, so the stale bit
// always lands before the release.
func TestSiblingFastLockShutOutAtSliceEnd(t *testing.T) {
	m := NewMutex(Options{Slice: 2 * time.Millisecond})
	a := m.Register()
	sib := a.Sibling()
	b := m.Register()

	a.Lock()
	m.lockMu()
	m.timer.t.Stop()
	m.unlockMu()
	done := make(chan struct{})
	go func() {
		b.Lock()
		b.Unlock()
		close(done)
	}()
	waitQueued(t, m, 1)
	time.Sleep(3 * time.Millisecond) // past the slice end

	var fast bool
	var word uint64
	m.SetTracer(&sliceEndHook{fn: func() {
		fast = m.fastLock(sib)
		word = m.word.Load()
	}})
	a.Unlock()
	if fast {
		t.Fatalf("sibling fast-acquired inside the slice-ending release (word %#x)", word)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("queued competitor never granted")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// waitQueued polls until at least n waiters are queued on m.
func waitQueued(t *testing.T, m *Mutex, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for QueueLen(m) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d waiter(s) never queued", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// parkForeign queues a LockContext waiter of a fresh entity behind m's
// current holder and returns its cancel func and result channel.
func parkForeign(t *testing.T, m *Mutex) (context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	b := m.Register()
	go func() {
		err := b.LockContext(ctx)
		if err == nil {
			b.Unlock()
		}
		errc <- err
	}()
	waitQueued(t, m, 1)
	return cancel, errc
}

// TestOwnerFastReleaseWithForeignWaiter: another entity's waiter, parked
// behind an hour-long slice, leaves the waiters bit clear, so the owner's
// re-acquires and releases all stay on the fast path — none folds the
// fast-op counter through the slow release.
func TestOwnerFastReleaseWithForeignWaiter(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	a := m.Register()
	a.Lock()
	cancel, errc := parkForeign(t, m)
	a.Unlock()
	if w := m.word.Load(); w&wordWaiters != 0 {
		t.Fatalf("waiters bit set for another entity's waiter (word %#x)", w)
	}
	const n = 100
	for i := 0; i < n; i++ {
		a.Lock()
		a.Unlock()
	}
	if got := m.fastOps.Load(); got != n {
		t.Fatalf("fastOps = %d after %d owner re-acquires, want %d (a release went slow)", got, n, n)
	}
	if !a.TryLock() {
		t.Fatal("the slice owner's TryLock failed behind another entity's waiter")
	}
	a.Unlock()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("foreign waiter: %v, want context.Canceled", err)
	}
}

// TestSiblingGrantedAtOwnerFastUnlock: with another entity's waiter still
// parked, a queued sibling of the owner raises the waiters bit, so the
// owner's fast-acquired Unlock hands the sibling the lock within the
// slice instead of leaving it to wait out the hour.
func TestSiblingGrantedAtOwnerFastUnlock(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	a := m.Register()
	sib := a.Sibling()
	a.Lock()
	cancel, errc := parkForeign(t, m)
	defer func() {
		cancel()
		<-errc
	}()
	a.Unlock()
	a.Lock()
	if !m.fastHeld {
		t.Fatal("owner re-acquire did not take the fast path")
	}
	granted := make(chan struct{})
	go func() {
		sib.Lock()
		close(granted)
	}()
	waitQueued(t, m, 2)
	if w := m.word.Load(); w&wordWaiters == 0 {
		t.Fatalf("waiters bit clear with the owner's sibling queued (word %#x)", w)
	}
	a.Unlock()
	select {
	case <-granted:
	case <-time.After(5 * time.Second):
		t.Fatal("queued sibling not granted at the owner's Unlock")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sib.Unlock()
}

// TestForeignWaiterGrantedAtSliceEnd: an owner that keeps re-acquiring on
// the fast path never releases through the slow path, so the slice timer
// must end its slice and grant the parked foreign waiter.
func TestForeignWaiterGrantedAtSliceEnd(t *testing.T) {
	m := NewMutex(Options{Slice: 2 * time.Millisecond})
	a := m.Register()
	b := m.Register()
	a.Lock()
	granted := make(chan struct{})
	go func() {
		b.Lock()
		close(granted)
		b.Unlock()
	}()
	waitQueued(t, m, 1)
	a.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for done := false; !done; {
		a.Lock()
		a.Unlock()
		select {
		case <-granted:
			done = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("foreign waiter not granted at the slice end")
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
