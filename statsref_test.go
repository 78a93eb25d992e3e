package scl

import (
	"fmt"
	"testing"
	"time"

	"scl/internal/check"
)

// The slow path reaches an entity's stats entry through a reference its
// handles share (entityRef), not through a map lookup. A reap removes the
// entry, so a reference cached before it must never be written again: the
// entity's next operation has to land in a fresh entry that Stats reports.
// Each case runs on the checker's virtual clock, so the reap timing and
// the hold lengths are exact, and checks CheckInvariants after every step.

const refGC = 10 * time.Millisecond

// runRefCase runs body on one managed goroutine against a k-SCL (every
// operation takes the slow path) with the inactive-entity GC at refGC.
func runRefCase(t *testing.T, body func(m *Mutex, step func(string))) {
	t.Helper()
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)
	m := NewMutex(Options{Slice: -1}, WithInactiveGC(refGC))
	var errs []error
	step := func(what string) {
		if err := m.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("after %s: %w", what, err))
		}
	}
	sched.Go("entity", func() { body(m, step) })
	if res := sched.Run(); res.Failure != nil {
		t.Fatal(res.Failure)
	}
	for _, err := range errs {
		t.Error(err)
	}
}

// hold takes the lock through h for d of virtual time.
func hold(h *Handle, d time.Duration) {
	h.Lock()
	check.Sleep(d)
	h.Unlock()
}

// reapIdle idles past the GC threshold and takes a snapshot, which runs
// the lazy sweep; it reports whether id's stats entry is gone.
func reapIdle(m *Mutex, id int64) bool {
	check.Sleep(2 * refGC)
	_, kept := m.Stats().Acquisitions[id]
	return !kept
}

// wantBooks checks id's stats entry against the operations made since the
// reap: a stale reference would leave the entry missing (the writes went
// to the removed entry) or carry the pre-reap history.
func wantBooks(t *testing.T, m *Mutex, id int64, acq int64, held time.Duration) {
	t.Helper()
	snap := m.Stats()
	if got := snap.Acquisitions[id]; got != acq {
		t.Errorf("acquisitions after the reap = %d, want %d", got, acq)
	}
	if got := snap.Hold[id]; got != held {
		t.Errorf("hold after the reap = %v, want %v", got, held)
	}
	if got := snap.HoldDist[id].Count; got != int(acq) {
		t.Errorf("hold samples after the reap = %d, want %d", got, acq)
	}
}

func TestStatsRefReapedHandleReturns(t *testing.T) {
	runRefCase(t, func(m *Mutex, step func(string)) {
		h := m.Register()
		hold(h, time.Millisecond)
		step("first hold")
		if !reapIdle(m, h.ID()) {
			t.Error("idle entity's stats entry survived the sweep")
		}
		step("reap")
		hold(h, 3*time.Millisecond)
		step("hold after the reap")
		wantBooks(t, m, h.ID(), 1, 3*time.Millisecond)
		h.Close()
		step("close")
	})
}

func TestStatsRefSiblingsShareFreshEntry(t *testing.T) {
	runRefCase(t, func(m *Mutex, step func(string)) {
		a := m.Register()
		b := a.Sibling()
		hold(a, time.Millisecond)
		hold(b, time.Millisecond)
		step("holds before the reap")
		if !reapIdle(m, a.ID()) {
			t.Error("idle entity's stats entry survived the sweep")
		}
		step("reap")
		hold(b, 2*time.Millisecond)
		step("sibling hold after the reap")
		hold(a, 3*time.Millisecond)
		step("original hold after the reap")
		wantBooks(t, m, a.ID(), 2, 5*time.Millisecond)
		if n := m.Entities(); n != 1 {
			t.Errorf("%d entities after the siblings returned, want 1", n)
		}
		a.Close()
		b.Close()
		step("close")
	})
}

func TestStatsRefGhostReturns(t *testing.T) {
	runRefCase(t, func(m *Mutex, step func(string)) {
		h := m.Register()
		h.Lock()
		h.Close() // deferred: the hold is in flight
		step("close while holding")
		check.Sleep(time.Millisecond)
		h.Unlock() // the ghost is dropped; its stats entry stays behind
		step("ghost release")
		if n := m.Entities(); n != 0 {
			t.Errorf("%d entities after the ghost released, want 0", n)
		}
		if !reapIdle(m, h.ID()) {
			t.Error("departed entity's residual stats entry survived the sweep")
		}
		step("residual sweep")
		hold(h, 2*time.Millisecond)
		step("hold through the closed handle")
		wantBooks(t, m, h.ID(), 1, 2*time.Millisecond)
		h.Close()
		step("second close")
		if n := m.Entities(); n != 0 {
			t.Errorf("%d entities after the second close, want 0", n)
		}
	})
}
