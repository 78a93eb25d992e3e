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
