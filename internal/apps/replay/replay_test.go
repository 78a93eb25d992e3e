package replay

import (
	"testing"
	"time"
)

func TestChargeScalesAndClamps(t *testing.T) {
	c := Clock{scale: 1.5}
	for _, tc := range []struct{ in, want time.Duration }{
		{0, floor},
		{20 * time.Nanosecond, floor},
		{2 * time.Microsecond, 3 * time.Microsecond},
		{70 * time.Microsecond, ceiling},
		{time.Second, ceiling},
	} {
		if got := c.charge(tc.in); got != tc.want {
			t.Errorf("charge(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCalibrateAnchorsMedian: a Clock calibrated on an anchor charges the
// anchor's own median reading the nominal cost, whatever the host's speed.
func TestCalibrateAnchorsMedian(t *testing.T) {
	steps := []time.Duration{1 * time.Microsecond, 3 * time.Microsecond, 2 * time.Microsecond}
	var now time.Duration
	i := 0
	c := calibrate(4*time.Microsecond, len(steps), func() {
		now += steps[i]
		i++
	}, func() time.Duration { return now })
	if got := c.charge(2 * time.Microsecond); got != 4*time.Microsecond {
		t.Fatalf("median reading charged %v, want 4µs", got)
	}
}

// TestAnchorFollowsHostDrift: when the host slows down after calibration,
// the run's own anchor readings bring the anchor's median back to the
// nominal cost once they have refilled the window, and not before.
func TestAnchorFollowsHostDrift(t *testing.T) {
	const n = 4
	var now time.Duration
	c := calibrate(4*time.Microsecond, n, func() { now += 2 * time.Microsecond }, func() time.Duration { return now })
	// The host now runs the anchor in 3µs instead of 2µs.
	for i := 0; i < n-1; i++ {
		if got := c.anchor(3 * time.Microsecond); got != 6*time.Microsecond {
			t.Fatalf("reading %d before the window refilled charged %v, want 6µs at the calibrated scale", i, got)
		}
	}
	if got := c.anchor(3 * time.Microsecond); got != 4*time.Microsecond {
		t.Fatalf("reading that refilled the window charged %v, want the nominal 4µs", got)
	}
	if got := c.charge(6 * time.Microsecond); got != 8*time.Microsecond {
		t.Fatalf("a reading of twice the anchor's median charged %v, want 8µs", got)
	}
}
