package scl

import (
	"sync"
	"testing"
	"time"

	"scl/trace"
)

func kindCounts(evs []trace.Event) map[trace.Kind]int {
	c := make(map[trace.Kind]int)
	for _, ev := range evs {
		c[ev.Kind]++
	}
	return c
}

// The full event lifecycle on a k-SCL (zero slice): a hog's long hold
// ends its slice, draws a ban, and hands off to the queued peer.
func TestMutexTracerLifecycle(t *testing.T) {
	ring := trace.NewRing(1 << 10)
	m := NewMutex(Options{Slice: -1, Name: "db", Tracer: ring})
	hog := m.Register().SetName("hog")
	peer := m.Register().SetName("peer")

	hog.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		peer.Lock()
		peer.Unlock()
	}()
	time.Sleep(10 * time.Millisecond) // peer queues behind the hog
	hog.Unlock()
	wg.Wait()

	evs := ring.Events()
	counts := kindCounts(evs)
	if counts[trace.KindAcquire] != 2 || counts[trace.KindRelease] != 2 {
		t.Fatalf("acquire/release = %d/%d, want 2/2\n%s",
			counts[trace.KindAcquire], counts[trace.KindRelease], trace.Format(evs))
	}
	if counts[trace.KindSliceEnd] == 0 {
		t.Fatalf("no slice-end events\n%s", trace.Format(evs))
	}
	if counts[trace.KindBan] == 0 {
		t.Fatalf("no ban for the hog\n%s", trace.Format(evs))
	}
	if counts[trace.KindHandoff] == 0 {
		t.Fatalf("no handoff to the peer\n%s", trace.Format(evs))
	}
	for _, ev := range evs {
		if ev.Lock != "db" {
			t.Fatalf("event lock = %q, want db", ev.Lock)
		}
		switch {
		case ev.Kind == trace.KindBan && ev.Name == "hog":
			if ev.Detail < 2*time.Millisecond {
				t.Fatalf("hog ban %v, want several ms", ev.Detail)
			}
		case ev.Kind == trace.KindAcquire && ev.Name == "peer":
			if ev.Detail < 2*time.Millisecond {
				t.Fatalf("peer acquire wait %v, want the queueing time", ev.Detail)
			}
		case ev.Kind == trace.KindRelease && ev.Name == "hog":
			if ev.Detail < 5*time.Millisecond {
				t.Fatalf("hog release hold %v, want ~10ms", ev.Detail)
			}
		}
	}

	// The same lifecycle shows up in the stats counters.
	s := m.Stats()
	if s.Bans[hog.ID()] == 0 || s.BanTime[hog.ID()] == 0 {
		t.Fatalf("stats bans = %d / %v", s.Bans[hog.ID()], s.BanTime[hog.ID()])
	}
	if s.Handoffs[peer.ID()] == 0 {
		t.Fatalf("stats handoffs = %d", s.Handoffs[peer.ID()])
	}
	if s.WaitDist[peer.ID()].Max < 2*time.Millisecond {
		t.Fatalf("peer wait dist = %+v", s.WaitDist[peer.ID()])
	}
	if s.Names[hog.ID()] != "hog" {
		t.Fatalf("names = %v", s.Names)
	}
}

// A tracer can be attached to (and detached from) a live lock.
func TestMutexSetTracerAtRuntime(t *testing.T) {
	m := NewMutex(Options{Name: "late"})
	h := m.Register()
	h.Lock()
	h.Unlock() // untraced
	ring := trace.NewRing(64)
	m.SetTracer(ring)
	h.Lock()
	h.Unlock()
	m.SetTracer(nil)
	h.Lock()
	h.Unlock() // untraced again
	evs := ring.Events()
	if c := kindCounts(evs); c[trace.KindAcquire] != 1 || c[trace.KindRelease] != 1 {
		t.Fatalf("traced window captured %v, want 1 acquire + 1 release", c)
	}
	if m.Name() != "late" {
		t.Fatalf("name = %q", m.Name())
	}
}

// RW-SCL tracing: class pseudo-entities, phase-switch slice ends, writer
// handoff with queueing wait, and reader union-hold on last release.
func TestRWLockTracer(t *testing.T) {
	ring := trace.NewRing(1 << 10)
	l := NewRWLock(1, 1, 2*time.Millisecond, WithName("rw"))
	l.SetTracer(ring)
	if l.Name() != "rw" {
		t.Fatalf("name = %q", l.Name())
	}

	l.RLock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.WLock() // queues until the write slice begins and readers drain
		time.Sleep(time.Millisecond)
		l.WUnlock()
	}()
	time.Sleep(5 * time.Millisecond)
	l.RUnlock()
	wg.Wait()

	evs := ring.Events()
	counts := kindCounts(evs)
	if counts[trace.KindAcquire] < 2 || counts[trace.KindRelease] < 2 {
		t.Fatalf("acquire/release = %d/%d\n%s",
			counts[trace.KindAcquire], counts[trace.KindRelease], trace.Format(evs))
	}
	if counts[trace.KindSliceEnd] == 0 {
		t.Fatalf("no phase-switch slice-end\n%s", trace.Format(evs))
	}
	if counts[trace.KindHandoff] == 0 {
		t.Fatalf("no writer handoff\n%s", trace.Format(evs))
	}
	var sawReaderRelease, sawWriterRelease, sawWriterWait bool
	for _, ev := range evs {
		switch {
		case ev.Kind == trace.KindRelease && ev.Entity == trace.EntityReaders:
			if ev.Detail >= 4*time.Millisecond { // the ~5ms union interval
				sawReaderRelease = true
			}
		case ev.Kind == trace.KindRelease && ev.Entity == trace.EntityWriters:
			if ev.Detail >= 500*time.Microsecond {
				sawWriterRelease = true
			}
		case ev.Kind == trace.KindAcquire && ev.Entity == trace.EntityWriters:
			if ev.Detail > 0 {
				sawWriterWait = true
			}
		}
	}
	if !sawReaderRelease || !sawWriterRelease || !sawWriterWait {
		t.Fatalf("reader-release=%v writer-release=%v writer-wait=%v\n%s",
			sawReaderRelease, sawWriterRelease, sawWriterWait, trace.Format(evs))
	}
}

// With no tracer installed the locks must not emit (nil-check guard).
func TestNoTracerNoEvents(t *testing.T) {
	m := NewMutex(Options{})
	h := m.Register()
	h.Lock()
	h.Unlock()
	// Nothing to assert beyond "does not panic": the nil path is the
	// default exercised by every other test in the package.
}

// TestTracerSlotStoreAllocs: only installing a tracer allocates its cell.
// Removing one — SetTracer(nil), or a lock built without one — allocates
// nothing.
func TestTracerSlotStoreAllocs(t *testing.T) {
	m := NewMutex(Options{})
	l := NewRWLock(1, 1, 0)
	if n := testing.AllocsPerRun(100, func() {
		m.SetTracer(nil)
		l.SetTracer(nil)
	}); n != 0 {
		t.Errorf("SetTracer(nil) allocates %v per Mutex+RWLock pair, want 0", n)
	}
	var s tracerSlot
	tr := &recTracer{}
	if n := testing.AllocsPerRun(100, func() { s.store(tr) }); n != 1 {
		t.Errorf("storing a tracer allocates %v, want its one cell", n)
	}
}
