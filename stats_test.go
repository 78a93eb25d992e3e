package scl

import (
	"testing"
	"time"
)

// newTestStats returns a lockStats with a zeroed clock so tests can drive
// it with synthetic timestamps.
func newTestStats() *lockStats {
	s := newLockStats()
	s.idleStart = 0
	s.started = 0
	return s
}

// statsRef is a fresh reference to entity id's stats entry, resolved
// through the entry map on first use.
func statsRef(id int64) *entityRef { return &entityRef{id: id} }

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// Idle accounting when multiple readers of distinct entities hold
// concurrently (the RW case): idle must accrue only while the holder
// count is zero, and each entity must be credited its own full hold.
func TestLockStatsIdleUnderReaderOverlap(t *testing.T) {
	s := newTestStats()
	// r1 holds [1,4), r2 holds [2,6): lock busy [1,6), idle [0,1) ∪ [6,8).
	s.onAcquire(statsRef(1), "r1", ms(1), 0)
	s.onAcquire(statsRef(2), "r2", ms(2), 0)
	s.onRelease(statsRef(1), ms(4))
	s.onRelease(statsRef(2), ms(6))
	snap := s.snapshot(ms(8))
	if snap.Idle != ms(3) {
		t.Fatalf("idle = %v, want 3ms (1ms before + 2ms after the overlap)", snap.Idle)
	}
	if snap.Hold[1] != ms(3) || snap.Hold[2] != ms(4) {
		t.Fatalf("holds = %v / %v, want 3ms / 4ms", snap.Hold[1], snap.Hold[2])
	}
	if snap.Elapsed != ms(8) {
		t.Fatalf("elapsed = %v", snap.Elapsed)
	}
}

// Regression: overlapping holds by the SAME entity (several readers of
// one class, or siblings of one group). The old map-of-start-times
// implementation overwrote the first hold's start and dropped the second
// release entirely, crediting 1ms of the true 4ms.
func TestLockStatsSameEntityOverlapHold(t *testing.T) {
	s := newTestStats()
	// Two holds of entity 1: [0,2) and [1,3). Σ individual holds = 4ms.
	s.onAcquire(statsRef(1), "", ms(0), 0)
	s.onAcquire(statsRef(1), "", ms(1), 0)
	s.onRelease(statsRef(1), ms(2))
	s.onRelease(statsRef(1), ms(3))
	snap := s.snapshot(ms(3))
	if snap.Hold[1] != ms(4) {
		t.Fatalf("hold = %v, want 4ms (Σ of overlapping holds)", snap.Hold[1])
	}
	if snap.Idle != 0 {
		t.Fatalf("idle = %v, want 0 while held", snap.Idle)
	}
	// The per-op sample is the union interval [0,3).
	if d := snap.HoldDist[1]; d.Count != 1 || d.Max != ms(3) {
		t.Fatalf("hold dist = %+v, want one 3ms union sample", d)
	}
}

// An in-flight hold at snapshot time is charged up to the snapshot.
func TestLockStatsInFlightHold(t *testing.T) {
	s := newTestStats()
	s.onAcquire(statsRef(7), "held", ms(2), ms(1))
	snap := s.snapshot(ms(5))
	if snap.Hold[7] != ms(3) {
		t.Fatalf("in-flight hold = %v, want 3ms", snap.Hold[7])
	}
	if snap.Idle != ms(2) {
		t.Fatalf("idle = %v, want the 2ms before the acquire", snap.Idle)
	}
	if snap.Names[7] != "held" {
		t.Fatalf("names = %v", snap.Names)
	}
	if d := snap.WaitDist[7]; d.Count != 1 || d.Max != ms(1) {
		t.Fatalf("wait dist = %+v, want one 1ms sample", d)
	}
}

func TestLockStatsBanAndHandoffCounters(t *testing.T) {
	s := newTestStats()
	s.onBan(statsRef(3), ms(10))
	s.onBan(statsRef(3), ms(5))
	s.onHandoff(statsRef(3))
	snap := s.snapshot(ms(1))
	if snap.Bans[3] != 2 || snap.BanTime[3] != ms(15) {
		t.Fatalf("bans = %d / %v, want 2 / 15ms", snap.Bans[3], snap.BanTime[3])
	}
	if snap.Handoffs[3] != 1 {
		t.Fatalf("handoffs = %d", snap.Handoffs[3])
	}
	if len(snap.IDs()) != 1 {
		t.Fatalf("IDs = %v", snap.IDs())
	}
}
