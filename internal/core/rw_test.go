package core

import (
	"testing"
	"time"
)

func TestRWStartsInReadSlice(t *testing.T) {
	c := NewRWController(RWParams{})
	if c.Phase() != PhaseRead {
		t.Fatalf("initial phase = %v, want read (paper Fig. 4 step 1)", c.Phase())
	}
}

func TestRWSliceLengthsProportional(t *testing.T) {
	c := NewRWController(RWParams{Period: 2 * time.Millisecond, ReadWeight: 9, WriteWeight: 1})
	if got := c.SliceLen(PhaseRead); got != 1800*time.Microsecond {
		t.Errorf("read slice = %v, want 1.8ms", got)
	}
	if got := c.SliceLen(PhaseWrite); got != 200*time.Microsecond {
		t.Errorf("write slice = %v, want 0.2ms", got)
	}
}

func TestRWSwitchOnExpiryWithOtherWaiting(t *testing.T) {
	c := NewRWController(RWParams{Period: time.Millisecond, ReadWeight: 1, WriteWeight: 1})
	if got := c.MaybeSwitch(400*time.Microsecond, true, true); got != PhaseRead {
		t.Fatalf("switched before expiry: %v", got)
	}
	if got := c.MaybeSwitch(600*time.Microsecond, true, true); got != PhaseWrite {
		t.Fatalf("did not switch at expiry: %v", got)
	}
}

func TestRWNoSwitchWithoutOtherClass(t *testing.T) {
	c := NewRWController(RWParams{Period: time.Millisecond})
	if got := c.MaybeSwitch(10*time.Millisecond, true, false); got != PhaseRead {
		t.Fatalf("switched to write slice with no writers: %v", got)
	}
	// The slice clock restarts so a writer arriving now is not instantly due.
	if c.Expired(10*time.Millisecond + 100*time.Microsecond) {
		t.Fatalf("slice clock was not restarted")
	}
}

func TestRWNoEarlySwitchMidSlice(t *testing.T) {
	// Slices strictly alternate: a momentarily idle class keeps the rest of
	// its slice even while the other class waits (a reader between two
	// acquisitions must not forfeit the read slice).
	c := NewRWController(RWParams{Period: 10 * time.Millisecond})
	if got := c.MaybeSwitch(time.Microsecond, false, true); got != PhaseRead {
		t.Fatalf("switched away mid-slice: %v", got)
	}
	// But once expired, the waiting class gets its turn.
	if got := c.MaybeSwitch(6*time.Millisecond, false, true); got != PhaseWrite {
		t.Fatalf("no switch after expiry: %v", got)
	}
}

func TestRWForceSwitch(t *testing.T) {
	c := NewRWController(RWParams{})
	if got := c.ForceSwitch(time.Millisecond); got != PhaseWrite {
		t.Fatalf("ForceSwitch -> %v, want write", got)
	}
	if got := c.ForceSwitch(2 * time.Millisecond); got != PhaseRead {
		t.Fatalf("ForceSwitch -> %v, want read", got)
	}
}

func TestRWPhaseEnd(t *testing.T) {
	c := NewRWController(RWParams{Period: 2 * time.Millisecond, ReadWeight: 3, WriteWeight: 1})
	if got, want := c.PhaseEnd(), 1500*time.Microsecond; got != want {
		t.Fatalf("PhaseEnd = %v, want %v", got, want)
	}
	c.ForceSwitch(1500 * time.Microsecond)
	if got, want := c.PhaseEnd(), 2000*time.Microsecond; got != want {
		t.Fatalf("write PhaseEnd = %v, want %v", got, want)
	}
}

func TestPhaseStringAndOther(t *testing.T) {
	if PhaseRead.String() != "read" || PhaseWrite.String() != "write" {
		t.Fatalf("phase strings wrong: %q %q", PhaseRead, PhaseWrite)
	}
	if PhaseRead.Other() != PhaseWrite || PhaseWrite.Other() != PhaseRead {
		t.Fatalf("Other() broken")
	}
}

func TestRWIdleRestartOnSliceGrid(t *testing.T) {
	// A 1ms read slice from 0 noticed idle-expired at 3.4ms restarts at
	// 3ms, the last grid point: the incumbent keeps the rest of that
	// slice, not a whole new one from 3.4ms.
	c := NewRWController(RWParams{Period: 2 * time.Millisecond, ReadWeight: 1, WriteWeight: 1})
	if got := c.MaybeSwitch(3400*time.Microsecond, true, false); got != PhaseRead {
		t.Fatalf("switched with no writers: %v", got)
	}
	if got, want := c.PhaseEnd(), 4*time.Millisecond; got != want {
		t.Fatalf("PhaseEnd after idle restart = %v, want %v", got, want)
	}
	// Noticing the expiry once or at every slice lands on the same clock.
	d := NewRWController(RWParams{Period: 2 * time.Millisecond, ReadWeight: 1, WriteWeight: 1})
	for _, at := range []time.Duration{1200, 2100, 3400} {
		d.MaybeSwitch(at*time.Microsecond, true, false)
	}
	if d.PhaseEnd() != c.PhaseEnd() {
		t.Fatalf("stepwise restarts end the slice at %v, one restart at %v", d.PhaseEnd(), c.PhaseEnd())
	}
}

func TestRWFreshSliceWaitsForEntry(t *testing.T) {
	// 9:1 of 10ms: the read slice ends at 9ms and a writer switches in at
	// 9.5ms, but readers still hold. Past the 1ms write slice (10.5ms)
	// the writer has not entered, so the slice has not begun: queued
	// readers must not switch it back.
	c := NewRWController(RWParams{Period: 10 * time.Millisecond, ReadWeight: 9, WriteWeight: 1})
	if got := c.MaybeSwitch(9500*time.Microsecond, true, true); got != PhaseWrite {
		t.Fatalf("no switch at read expiry: %v", got)
	}
	if got := c.MaybeSwitch(12*time.Millisecond, true, true); got != PhaseWrite {
		t.Fatalf("write slice ended before its writer entered: %v", got)
	}
	// The writer enters at 12.2ms: its 1ms slice runs from there.
	c.Enter(12200 * time.Microsecond)
	if got, want := c.PhaseEnd(), 13200*time.Microsecond; got != want {
		t.Fatalf("PhaseEnd after entry = %v, want %v", got, want)
	}
	if got := c.MaybeSwitch(13200*time.Microsecond, true, true); got != PhaseRead {
		t.Fatalf("entered write slice did not end at expiry: %v", got)
	}
	// A fresh slice nobody of its class wants any more (the readers gave
	// up) ends at expiry as before.
	if got := c.MaybeSwitch(25*time.Millisecond, false, true); got != PhaseWrite {
		t.Fatalf("abandoned fresh read slice kept: %v", got)
	}
}
