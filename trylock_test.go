package scl

import (
	"sync"
	"testing"
	"time"
)

func TestTryLockFree(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	h := m.Register()
	if !h.TryLock() {
		t.Fatal("TryLock on a free lock failed")
	}
	h.Unlock()
	// The slice is now h's: the retry goes through the fast path.
	if !h.TryLock() {
		t.Fatal("owner TryLock re-acquire failed")
	}
	h.Unlock()
	if s := m.Stats(); s.Acquisitions[h.ID()] != 2 {
		t.Fatalf("acquisitions = %d, want 2", s.Acquisitions[h.ID()])
	}
}

func TestTryLockHeld(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	a := m.Register()
	b := m.Register()
	a.Lock()
	if a.Sibling().TryLock() {
		t.Fatal("TryLock succeeded while the lock was held (sibling)")
	}
	if b.TryLock() {
		t.Fatal("TryLock succeeded while the lock was held (other entity)")
	}
	a.Unlock()
}

func TestTryLockLiveSliceOfOther(t *testing.T) {
	m := NewMutex(Options{Slice: time.Hour})
	a := m.Register()
	b := m.Register()
	a.Lock()
	a.Unlock()
	// a owns the (hour-long) slice; the lock is free but b's TryLock must
	// not jump into a's slice.
	if b.TryLock() {
		t.Fatal("TryLock stole another entity's live slice")
	}
	if !a.TryLock() {
		t.Fatal("slice owner TryLock failed on its own live slice")
	}
	a.Unlock()
}

func TestTryLockExpiredSlice(t *testing.T) {
	m := NewMutex(Options{Slice: time.Millisecond})
	a := m.Register()
	b := m.Register()
	a.Lock()
	a.Unlock()
	time.Sleep(5 * time.Millisecond) // a's slice expires, nobody queued
	if !b.TryLock() {
		t.Fatal("TryLock failed on an expired, unqueued slice")
	}
	b.Unlock()
	if owner := func() bool {
		s := m.Stats()
		return s.Acquisitions[b.ID()] == 1
	}(); !owner {
		t.Fatal("b's TryLock acquisition missing from stats")
	}
}

func TestTryLockBanned(t *testing.T) {
	// a hogs through its whole slice against a registered peer: banned.
	_, a, b := banHog(t, Options{Slice: 10 * time.Millisecond, BanCap: time.Hour}, 15*time.Millisecond)
	if a.TryLock() {
		t.Fatal("TryLock succeeded while banned")
	}
	if !b.TryLock() {
		t.Fatal("unbanned entity's TryLock failed on a free, expired lock")
	}
	b.Unlock()
}

func TestTryLockQueueNonEmpty(t *testing.T) {
	m := NewMutex(Options{Slice: 5 * time.Millisecond})
	a := m.Register()
	b := m.Register()
	c := m.Register()

	a.Lock()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.Lock() // queues behind a
		b.Unlock()
	}()
	// Wait until b is actually queued.
	waitQueued(t, m, 1)
	if c.TryLock() {
		t.Fatal("TryLock jumped a non-empty queue")
	}
	a.Unlock()
	wg.Wait()
}

// TestTryLockStress interleaves TryLock with blocking Lock under load;
// the guarded counter catches any exclusion violation between the two
// acquisition paths.
func TestTryLockStress(t *testing.T) {
	m := NewMutex(Options{Slice: 100 * time.Microsecond})
	var guarded int64
	var acquired int64
	var tally sync.Mutex
	deadline := time.Now().Add(200 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(try bool) {
			defer wg.Done()
			h := m.Register()
			defer h.Close()
			var local int64
			for time.Now().Before(deadline) {
				if try {
					if !h.TryLock() {
						continue
					}
				} else {
					h.Lock()
				}
				guarded++
				local++
				h.Unlock()
			}
			tally.Lock()
			acquired += local
			tally.Unlock()
		}(i%2 == 0)
	}
	wg.Wait()
	if guarded != acquired {
		t.Fatalf("guarded counter = %d, want %d", guarded, acquired)
	}
}
