package scl

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"scl/internal/check"
)

// exerciseMutualExclusion hammers a sync.Locker from several goroutines
// and verifies the protected counter is consistent (run with -race).
func exerciseMutualExclusion(t *testing.T, name string, mk func() sync.Locker) {
	t.Helper()
	const goroutines = 8
	const iters = 2000
	var counter int
	var wg sync.WaitGroup
	lockers := make([]sync.Locker, goroutines)
	for i := range lockers {
		lockers[i] = mk()
	}
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(lk sync.Locker) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				lk.Lock()
				counter++
				lk.Unlock()
			}
		}(lockers[i])
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("%s: counter = %d, want %d", name, counter, goroutines*iters)
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	m := NewMutex(Options{Slice: 100 * time.Microsecond})
	exerciseMutualExclusion(t, "scl.Mutex", func() sync.Locker { return m.Register() })
}

func TestBargingMutexMutualExclusion(t *testing.T) {
	var m BargingMutex
	exerciseMutualExclusion(t, "BargingMutex", func() sync.Locker { return &m })
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var m SpinLock
	exerciseMutualExclusion(t, "SpinLock", func() sync.Locker { return &m })
}

func TestTicketLockMutualExclusion(t *testing.T) {
	var m TicketLock
	exerciseMutualExclusion(t, "TicketLock", func() sync.Locker { return &m })
}

func TestMutexUsageFairness(t *testing.T) {
	// A hog with 8ms critical sections and a light thread with 1ms critical
	// sections must end with roughly equal hold times under u-SCL.
	// Critical sections sleep while holding, so this works on one CPU.
	m := NewMutex(Options{Slice: time.Millisecond})
	hog := m.Register().SetName("hog")
	light := m.Register().SetName("light")
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	run := func(h *Handle, cs time.Duration) {
		defer wg.Done()
		for time.Now().Before(deadline) {
			h.Lock()
			time.Sleep(cs)
			h.Unlock()
		}
	}
	wg.Add(2)
	go run(hog, 8*time.Millisecond)
	go run(light, time.Millisecond)
	wg.Wait()
	s := m.Stats()
	hh, lh := s.Hold[hog.ID()], s.Hold[light.ID()]
	if lh == 0 {
		t.Fatalf("light thread starved entirely")
	}
	ratio := float64(hh) / float64(lh)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("hold ratio hog/light = %.2f (%v vs %v), want ~1", ratio, hh, lh)
	}
	if jain := s.JainHold(hog.ID(), light.ID()); jain < 0.85 {
		t.Fatalf("Jain hold fairness %.3f, want >= 0.85", jain)
	}
}

func TestMutexProportionalWeights(t *testing.T) {
	// 2:1 weights with identical critical sections: hold times should
	// approach 2:1.
	m := NewMutex(Options{Slice: time.Millisecond})
	heavy := m.RegisterWeight(2048)
	lightw := m.RegisterWeight(1024)
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	run := func(h *Handle) {
		defer wg.Done()
		for time.Now().Before(deadline) {
			h.Lock()
			time.Sleep(2 * time.Millisecond)
			h.Unlock()
		}
	}
	wg.Add(2)
	go run(heavy)
	go run(lightw)
	wg.Wait()
	s := m.Stats()
	ratio := float64(s.Hold[heavy.ID()]) / float64(s.Hold[lightw.ID()])
	if ratio < 1.3 || ratio > 3.0 {
		t.Fatalf("weighted hold ratio = %.2f, want ~2", ratio)
	}
}

func TestMutexBanImposed(t *testing.T) {
	// After hogging the lock for 60ms against a competing peer, the hog's
	// next acquisition must be delayed by roughly its over-use.
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
	time.Sleep(5 * time.Millisecond) // let the peer become active
	hog.Lock()
	time.Sleep(60 * time.Millisecond)
	hog.Unlock()
	reacquireStart := time.Now()
	hog.Lock()
	gap := time.Since(reacquireStart)
	hog.Unlock()
	close(stop)
	wg.Wait()
	if gap < 25*time.Millisecond {
		t.Fatalf("hog reacquired after %v, want a substantial ban (>= 25ms)", gap)
	}
}

func TestMutexLoneThreadNoBan(t *testing.T) {
	// A lone registered entity must never be penalized: N quick
	// acquisitions should complete almost instantly.
	m := NewMutex(Options{})
	h := m.Register()
	start := time.Now()
	for i := 0; i < 10000; i++ {
		h.Lock()
		h.Unlock()
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("10k lone acquisitions took %v", el)
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	m := NewMutex(Options{})
	h := m.Register()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Unlock()
}

// TestMutexUnlockByOtherEntityPanics: Unlock through a handle whose entity
// does not hold the lock must panic, whichever path took the hold, and
// leave the holder's hold intact. A sibling of the holder is the same
// entity and may release it.
func TestMutexUnlockByOtherEntityPanics(t *testing.T) {
	mustPanic := func(name string, h *Handle) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.HasPrefix(fmt.Sprint(r), "scl:") {
				t.Fatalf("%s: Unlock by a non-holder: recovered %v, want an scl: panic", name, r)
			}
		}()
		h.Unlock()
	}
	cases := []struct {
		name  string
		slice time.Duration
		fast  bool
	}{
		{"u-SCL slow", 0, false},
		{"u-SCL fast", 0, true},
		{"k-SCL", -1, false},
	}
	for _, c := range cases {
		m := NewMutex(Options{Slice: c.slice})
		a := m.Register()
		b := m.Register()
		a.Lock()
		if c.fast {
			a.Unlock()
			a.Lock()
			if !m.fastHeld {
				t.Fatalf("%s: re-acquire did not take the fast path", c.name)
			}
		}
		mustPanic(c.name, b)
		a.Unlock() // the hold survived the misuse
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if m.word.Load()&wordHeld != 0 {
			t.Fatalf("%s: lock still held after the holder's Unlock", c.name)
		}
	}

	m := NewMutex(Options{})
	a := m.Register()
	sib := a.Sibling()
	for i := 0; i < 2; i++ { // slow, then fast acquire
		a.Lock()
		sib.Unlock()
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleCloseUnregisters(t *testing.T) {
	m := NewMutex(Options{})
	a := m.Register()
	b := m.Register()
	b.Close()
	// With b gone, a is alone and must never be banned even after hogging.
	a.Lock()
	time.Sleep(10 * time.Millisecond)
	a.Unlock()
	start := time.Now()
	a.Lock()
	a.Unlock()
	if gap := time.Since(start); gap > 5*time.Millisecond {
		t.Fatalf("lone survivor banned for %v", gap)
	}
}

func TestRWLockExclusion(t *testing.T) {
	l := NewRWLock(1, 1, time.Millisecond)
	var readers, writers, violations int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(200 * time.Millisecond)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.RLock()
				mu.Lock()
				readers++
				if writers > 0 {
					violations++
				}
				mu.Unlock()
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				readers--
				mu.Unlock()
				l.RUnlock()
			}
		}()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.WLock()
				mu.Lock()
				writers++
				if writers > 1 || readers > 0 {
					violations++
				}
				mu.Unlock()
				time.Sleep(50 * time.Microsecond)
				mu.Lock()
				writers--
				mu.Unlock()
				l.WUnlock()
			}
		}()
	}
	wg.Wait()
	if violations > 0 {
		t.Fatalf("%d rw exclusion violations", violations)
	}
}

func TestRWLockRatio(t *testing.T) {
	// 9:1 read:write. With saturating readers and writers, writer hold
	// should be a modest slice (~10%) of total hold, never starved.
	l := NewRWLock(9, 1, 2*time.Millisecond)
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.RLock()
				time.Sleep(200 * time.Microsecond)
				l.RUnlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			l.WLock()
			time.Sleep(200 * time.Microsecond)
			l.WUnlock()
		}
	}()
	wg.Wait()
	s := l.Stats()
	if s.WriterOps < 10 {
		t.Fatalf("writer starved: %d ops", s.WriterOps)
	}
	if s.ReaderOps < 10 {
		t.Fatalf("readers starved: %d ops", s.ReaderOps)
	}
	frac := float64(s.WriterHold) / float64(s.WriterHold+s.ReaderHold/2)
	if frac > 0.45 {
		t.Fatalf("writer fraction %.2f, want bounded near its 10%% share", frac)
	}
}

// TestRWWriteSliceWaitsForWriter: a write slice does not expire before
// its writer is admitted. With a 9:1 split of a 10 ms period the read
// slice ends at 9 ms with writer w queued, but reader r1 holds until
// 12 ms, so w waits out the drain; reader r2 queues at 10 ms, past the
// 1 ms write slice measured from the flip. w must enter at r1's release,
// ahead of r2, instead of losing its slice to the readers and waiting a
// whole read slice more.
func TestRWWriteSliceWaitsForWriter(t *testing.T) {
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)
	l := NewRWLock(9, 1, 10*time.Millisecond)
	start := monotime()
	var wAt, r2At time.Duration
	sched.Go("r1", func() {
		l.RLock()
		check.Sleep(12 * time.Millisecond)
		l.RUnlock()
	})
	sched.Go("w", func() {
		check.Sleep(time.Millisecond)
		l.WLock()
		wAt = monotime() - start
		check.Sleep(100 * time.Microsecond)
		l.WUnlock()
	})
	sched.Go("r2", func() {
		check.Sleep(10 * time.Millisecond)
		l.RLock()
		r2At = monotime() - start
		l.RUnlock()
	})
	if res := sched.Run(); res.Failure != nil {
		t.Fatal(res.Failure)
	}
	if wAt != 12*time.Millisecond || r2At < wAt {
		t.Fatalf("writer admitted at %v and reader r2 at %v, want the writer at r1's release (12ms) and first", wAt, r2At)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRWLockUnlockPanics(t *testing.T) {
	l := NewRWLock(1, 1, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RUnlock without RLock did not panic")
			}
		}()
		l.RUnlock()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WUnlock without WLock did not panic")
			}
		}()
		l.WUnlock()
	}()
}

func TestStatsSnapshotLOT(t *testing.T) {
	m := NewMutex(Options{})
	h := m.Register()
	h.Lock()
	time.Sleep(5 * time.Millisecond)
	h.Unlock()
	time.Sleep(5 * time.Millisecond)
	s := m.Stats()
	if s.Hold[h.ID()] < 4*time.Millisecond {
		t.Fatalf("hold %v, want ~5ms", s.Hold[h.ID()])
	}
	if s.Idle < 4*time.Millisecond {
		t.Fatalf("idle %v, want ~5ms+", s.Idle)
	}
	if lot := s.LOT(h.ID()); lot < 9*time.Millisecond {
		t.Fatalf("LOT %v, want ~10ms", lot)
	}
}

func TestNiceToWeightExported(t *testing.T) {
	if NiceToWeight(0) != 1024 || NiceToWeight(-3) != 1991 {
		t.Fatal("NiceToWeight mapping wrong")
	}
}

func TestSiblingGroupSharesSlice(t *testing.T) {
	// Two siblings of one entity versus one competitor: the group gets
	// ~50% of lock hold (entity share), not ~67% (thread share), and the
	// siblings together keep their slice busy.
	m := NewMutex(Options{Slice: 2 * time.Millisecond})
	a1 := m.Register().SetName("groupA")
	a2 := a1.Sibling()
	b := m.Register().SetName("b")
	deadline := time.Now().Add(600 * time.Millisecond)
	var wg sync.WaitGroup
	run := func(h *Handle) {
		defer wg.Done()
		for time.Now().Before(deadline) {
			h.Lock()
			time.Sleep(500 * time.Microsecond)
			h.Unlock()
			time.Sleep(500 * time.Microsecond) // non-critical section
		}
	}
	wg.Add(3)
	go run(a1)
	go run(a2)
	go run(b)
	wg.Wait()
	s := m.Stats()
	groupHold := s.Hold[a1.ID()] // siblings share the ID
	bHold := s.Hold[b.ID()]
	if bHold == 0 {
		t.Fatal("competitor starved")
	}
	ratio := float64(groupHold) / float64(bHold)
	if ratio < 0.5 || ratio > 2.2 {
		t.Fatalf("group/competitor hold ratio %.2f (%v vs %v), want ~1 (entity fairness)",
			ratio, groupHold, bHold)
	}
}

func TestSiblingCloseRefcount(t *testing.T) {
	m := NewMutex(Options{})
	a := m.Register()
	b := a.Sibling()
	a.Close()
	// Entity must survive while b is open: locking through b still works
	// and does not re-register at zero weight.
	b.Lock()
	b.Unlock()
	b.Close()
	// Now a new lone entity is never banned even after hogging.
	c := m.Register()
	c.Lock()
	time.Sleep(5 * time.Millisecond)
	c.Unlock()
	start := time.Now()
	c.Lock()
	c.Unlock()
	if gap := time.Since(start); gap > 5*time.Millisecond {
		t.Fatalf("lone entity banned %v after siblings closed", gap)
	}
}

func TestSiblingsMutualExclusion(t *testing.T) {
	m := NewMutex(Options{Slice: 100 * time.Microsecond})
	base := m.Register()
	var counter int
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		h := base.Sibling()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				h.Lock()
				counter++
				h.Unlock()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}
