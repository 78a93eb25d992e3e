package scl

import (
	"sync"
	"testing"
	"time"

	"scl/internal/check"
)

// Tests covering the less-travelled paths: panic branches of the baseline
// locks, contended waiter paths, and the remaining stats helpers.

func TestSpinLockUnlockUnlockedPanics(t *testing.T) {
	var l SpinLock
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Unlock()
}

func TestBargingMutexUnlockUnlockedPanics(t *testing.T) {
	var l BargingMutex
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	l.Unlock()
}

func TestBargingMutexContendedSleepPath(t *testing.T) {
	// Force the slow path: hold the lock long enough that a second locker
	// exhausts its spin budget and parks, then gets woken.
	var l BargingMutex
	l.Lock()
	done := make(chan struct{})
	go func() {
		l.Lock()
		l.Unlock()
		close(done)
	}()
	time.Sleep(20 * time.Millisecond) // well past the spin budget
	l.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked waiter never woke")
	}
}

func TestRegisterNiceWeights(t *testing.T) {
	m := NewMutex(Options{})
	h := m.RegisterNice(-3)
	if h.weight != 1991 {
		t.Fatalf("nice -3 weight = %d, want 1991", h.weight)
	}
	h0 := m.RegisterNice(0)
	if h0.weight != 1024 {
		t.Fatalf("nice 0 weight = %d", h0.weight)
	}
}

func TestStatsJainLOT(t *testing.T) {
	// The holds run on the checker's virtual clock, so each lasts exactly
	// 2ms however loaded the machine is.
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)
	m := NewMutex(Options{})
	a := m.Register()
	b := m.Register()
	sched.Go("holder", func() {
		a.Lock()
		check.Sleep(2 * time.Millisecond)
		a.Unlock()
		b.Lock()
		check.Sleep(2 * time.Millisecond)
		b.Unlock()
	})
	if res := sched.Run(); res.Failure != nil {
		t.Fatal(res.Failure)
	}
	s := m.Stats()
	if j := s.JainLOT(a.ID(), b.ID()); j < 0.9 {
		t.Fatalf("JainLOT = %.3f for symmetric usage", j)
	}
}

func TestRWLockWriterQueuedBehindWriter(t *testing.T) {
	// Two writers contending covers WLock's queued path.
	l := NewRWLock(1, 1, time.Millisecond)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	l.WLock()
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.WLock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			l.WUnlock()
		}()
	}
	time.Sleep(10 * time.Millisecond)
	l.WUnlock()
	wg.Wait()
	if len(order) != 2 {
		t.Fatalf("writers completed: %v", order)
	}
}

func TestTicketLockOrder(t *testing.T) {
	// Tickets are served in FIFO order: a holder plus two queued lockers
	// finish in the order they took tickets.
	var l TicketLock
	l.Lock()
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 2 {
				time.Sleep(5 * time.Millisecond) // take the later ticket
			}
			l.Lock()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			l.Unlock()
		}()
	}
	time.Sleep(20 * time.Millisecond)
	l.Unlock()
	wg.Wait()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("ticket order %v, want [1 2]", order)
	}
}
