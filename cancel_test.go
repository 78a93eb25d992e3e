package scl

import (
	"context"
	"errors"
	"testing"
	"time"

	"scl/trace"
)

// TestLockContextAlreadyCancelled: a ctx that is already cancelled returns
// immediately, even when the lock is free, and the lock is NOT held
// afterwards.
func TestLockContextAlreadyCancelled(t *testing.T) {
	m := NewMutex(Options{Slice: 10 * time.Millisecond})
	h := m.Register()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := h.LockContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("LockContext(cancelled) = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("LockContext(cancelled) blocked for %v", elapsed)
	}
	// The lock must be free: a plain acquire succeeds without contention.
	h.Lock()
	h.Unlock()
	if s := m.Stats(); s.Acquisitions[h.ID()] != 1 {
		t.Fatalf("acquisitions = %d, want 1 (the abandoned call must not count)", s.Acquisitions[h.ID()])
	}
}

// TestLockContextCancelWhileParked cancels a waiter parked behind a
// long-running holder: LockContext returns ctx.Err(), the cancel is
// counted in stats, an abandon event is traced, and the lock still works.
func TestLockContextCancelWhileParked(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: 10 * time.Millisecond, Name: "parked", Tracer: rec})
	a := m.Register().SetName("A")
	b := m.Register().SetName("B")

	a.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- b.LockContext(ctx) }()

	// Wait until B is actually parked before cancelling.
	waitQueued(t, m, 1)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("LockContext = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	a.Unlock()

	// The abandoned waiter must have left no trace in the queue: both
	// entities can still acquire.
	b.Lock()
	b.Unlock()
	a.Lock()
	a.Unlock()

	s := m.Stats()
	if s.Cancels[b.ID()] != 1 {
		t.Fatalf("cancels[B] = %d, want 1", s.Cancels[b.ID()])
	}
	if s.Acquisitions[b.ID()] != 1 {
		t.Fatalf("acquisitions[B] = %d, want 1 (only the post-cancel Lock)", s.Acquisitions[b.ID()])
	}
	var abandons int
	for _, ev := range rec.events() {
		if ev.Kind == trace.KindAbandon {
			abandons++
			if ev.Name != "B" {
				t.Fatalf("abandon traced for %q, want B", ev.Name)
			}
			if ev.Detail <= 0 {
				t.Fatalf("abandon Detail = %v, want the positive time waited", ev.Detail)
			}
		}
	}
	if abandons != 1 {
		t.Fatalf("traced %d abandon events, want 1", abandons)
	}
}

// banHog builds a fresh Mutex and has entity a hog the lock through its
// whole slice against a registered peer, so a's release draws a penalty.
// The penalty itself is deterministic in the accountant (100% usage over
// a 50% share always exceeds the slack), but whether the hog's release
// lands while its slice is still the expired one depends on real-clock
// timing, so on a loaded box a single attempt can miss the window. Tests
// that need a banned entity retry with a fresh lock until the ban lands
// instead of skipping — the banned paths must never go untested.
func banHog(t *testing.T, opts Options, hold time.Duration) (m *Mutex, a, b *Handle) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		m = NewMutex(opts)
		a = m.Register()
		b = m.Register()
		a.Lock()
		time.Sleep(hold) // overrun the slice
		a.Unlock()       // slice end: ban computed here
		if m.Stats().Bans[a.ID()] == 1 {
			return m, a, b
		}
	}
	t.Fatal("hog setup never drew a ban in 20 attempts")
	return nil, nil, nil
}

// TestLockContextCancelDuringBan cancels an acquire that is sleeping out a
// penalty: the call returns promptly — well before the ban would have
// ended — and the cancel is counted.
func TestLockContextCancelDuringBan(t *testing.T) {
	m, a, _ := banHog(t, Options{Slice: 40 * time.Millisecond}, 50*time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := a.LockContext(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("LockContext during ban = %v (after %v), want deadline exceeded", err, elapsed)
	}
	// The penalty is ~50ms (usage over a 50% share); returning in a small
	// fraction of that shows the ban sleep was interrupted, not slept out.
	if elapsed > 35*time.Millisecond {
		t.Fatalf("cancelled ban sleep took %v, want prompt return", elapsed)
	}
	if s := m.Stats(); s.Cancels[a.ID()] != 1 {
		t.Fatalf("cancels = %d, want 1", s.Cancels[a.ID()])
	}
}

// TestRWLockContextAlreadyCancelled mirrors the mutex guarantee for both
// RW classes: an already-cancelled ctx returns without blocking and
// without holding the lock.
func TestRWLockContextAlreadyCancelled(t *testing.T) {
	l := NewRWLock(1, 1, 10*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.RLockContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RLockContext(cancelled) = %v, want context.Canceled", err)
	}
	if err := l.WLockContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WLockContext(cancelled) = %v, want context.Canceled", err)
	}
	// Both classes still acquire cleanly.
	l.RLock()
	l.RUnlock()
	l.WLock()
	l.WUnlock()
}

// TestRWLockContextCancelWhileBlocked cancels a reader blocked behind an
// active writer and a writer blocked behind an active reader, checking
// ctx.Err() comes back, the per-class cancel counters advance, and the
// lock keeps serving both classes.
func TestRWLockContextCancelWhileBlocked(t *testing.T) {
	l := NewRWLock(1, 1, 20*time.Millisecond)

	// Reader blocked behind a writer: a writer is active, so rlockSlow
	// queues regardless of phase.
	l.WLock()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	if err := l.RLockContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RLockContext behind writer = %v, want deadline exceeded", err)
	}
	cancel()
	l.WUnlock()

	// Writer blocked behind a reader: a reader is active, so the write
	// slice cannot start and wlockSlow queues.
	l.RLock()
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Millisecond)
	if err := l.WLockContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WLockContext behind reader = %v, want deadline exceeded", err)
	}
	cancel()
	l.RUnlock()

	s := l.Stats()
	if s.ReaderCancels != 1 || s.WriterCancels != 1 {
		t.Fatalf("cancels = %d readers / %d writers, want 1/1", s.ReaderCancels, s.WriterCancels)
	}

	// Both classes still acquire cleanly after the abandons.
	l.RLock()
	l.RUnlock()
	l.WLock()
	l.WUnlock()
}

// TestLockContextGrantRace aims LockContext cancellations at the grant
// window itself: a holder releases (setting the transfer bit and marking
// the head waiter granted) at the same moment the waiter's ctx fires. The
// abandon path must detect the in-flight grant and re-route it, so a third
// party can always still acquire. Deterministic interleaving isn't
// reachable from the public API, so this iterates the race many times; the
// 30s -race stress (TestMutexStressCancel) covers the rest.
func TestLockContextGrantRace(t *testing.T) {
	m := NewMutex(Options{Slice: -1}) // k-SCL: every release transfers
	a := m.Register()
	b := m.Register()
	c := m.Register()

	for i := 0; i < 500; i++ {
		a.Lock()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- b.LockContext(ctx) }()
		for QueueLen(m) == 0 {
			time.Sleep(10 * time.Microsecond)
		}
		// Release and cancel concurrently: the grant to B races its abandon.
		go a.Unlock()
		cancel()
		if err := <-errc; err == nil {
			b.Unlock()
		}
		// Whatever happened, the lock must still be acquirable.
		lctx, lcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := c.LockContext(lctx); err != nil {
			t.Fatalf("iteration %d: lock wedged after cancel/release race: %v", i, err)
		}
		c.Unlock()
		lcancel()
	}
}
