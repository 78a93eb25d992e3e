// Package replay turns host timings of real substrate operations into
// simulated critical sections for the measured-cost simulator twins
// (internal/apps/upscale, internal/apps/kyoto).
//
// A twin runs the real data-structure operation and charges its duration
// to the simulated CPU. The simulator's own costs (futex wake, wake
// latency, spin notice: sim.CostModel) are fixed, so raw host time would
// move every critical section against them with the host's speed: on a
// host that runs the substrate twice as fast, the lock's hold times halve
// while its wake path does not, and the figures' operating point moves.
// A Clock runs at a reference host's speed instead. It times an anchor
// operation on this host and scales every later reading so that the
// anchor's median costs what the reference host measured for it; the
// relative costs of the twin's operations stay this host's own. The
// twin's own runs of the anchor keep the scale current (Anchor), since a
// shared host's speed drifts between the calibration and the end of a
// run.
package replay

import (
	"slices"
	"time"
)

const (
	// floor is the least a reading is charged: clock granularity can
	// return 0 for a short operation.
	floor = 50 * time.Nanosecond
	// ceiling caps a reading. The substrates' operations are
	// microsecond-scale by construction, so a larger reading is noise (a GC
	// pause or an OS preemption of the simulating process), not
	// critical-section work.
	ceiling = 100 * time.Microsecond
)

// Clock converts host time into simulated time at the ratio under which
// the median of the last window of anchor readings costs nominal.
type Clock struct {
	nominal time.Duration
	scale   float64
	window  []time.Duration // the latest anchor readings, filled in turn
	next    int             // the slot of window the next reading fills
	sorted  []time.Duration // the window sorted; reused, so a rescale allocates nothing mid-run
}

// Calibrate runs anchor n times and returns the Clock under which the
// median of those runs costs nominal. n is also the window Anchor
// re-derives the scale from.
func Calibrate(nominal time.Duration, n int, anchor func()) *Clock {
	epoch := time.Now()
	return calibrate(nominal, n, anchor, func() time.Duration { return time.Since(epoch) })
}

// calibrate is Calibrate reading time from now.
func calibrate(nominal time.Duration, n int, anchor func(), now func() time.Duration) *Clock {
	c := &Clock{nominal: nominal, window: make([]time.Duration, n), sorted: make([]time.Duration, n)}
	for i := range c.window {
		start := now()
		anchor()
		c.window[i] = now() - start
	}
	c.rescale()
	return c
}

// rescale sets the scale from the window's median reading.
func (c *Clock) rescale() {
	copy(c.sorted, c.window)
	slices.Sort(c.sorted)
	median := c.sorted[len(c.sorted)/2]
	if median <= 0 {
		median = 1
	}
	c.scale = float64(c.nominal) / float64(median)
}

// Since returns the simulated cost of an operation that started at start.
func (c *Clock) Since(start time.Time) time.Duration {
	return c.charge(time.Since(start))
}

// Anchor is Since for a run of the anchor operation. The reading joins
// the window, and each time the window has been refilled the scale is
// re-derived from it, so the anchor's median stays at nominal while the
// host's speed drifts during the run.
func (c *Clock) Anchor(start time.Time) time.Duration {
	return c.anchor(time.Since(start))
}

// anchor books host reading d of the anchor and returns its charge.
func (c *Clock) anchor(d time.Duration) time.Duration {
	c.window[c.next] = d
	if c.next++; c.next == len(c.window) {
		c.next = 0
		c.rescale()
	}
	return c.charge(d)
}

// charge scales a host reading and clamps it to [floor, ceiling].
func (c *Clock) charge(d time.Duration) time.Duration {
	d = time.Duration(float64(d) * c.scale)
	if d < floor {
		return floor
	}
	if d > ceiling {
		return ceiling
	}
	return d
}
