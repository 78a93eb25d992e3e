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
// relative costs of the twin's operations stay this host's own.
package replay

import (
	"sort"
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

// Clock converts host time into simulated time at a fixed ratio.
type Clock struct{ scale float64 }

// Calibrate runs anchor n times and returns the Clock under which the
// median of those runs costs nominal.
func Calibrate(nominal time.Duration, n int, anchor func()) Clock {
	epoch := time.Now()
	return calibrate(nominal, n, anchor, func() time.Duration { return time.Since(epoch) })
}

// calibrate is Calibrate reading time from now.
func calibrate(nominal time.Duration, n int, anchor func(), now func() time.Duration) Clock {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := now()
		anchor()
		ds[i] = now() - start
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	median := ds[n/2]
	if median <= 0 {
		median = 1
	}
	return Clock{scale: float64(nominal) / float64(median)}
}

// Since returns the simulated cost of an operation that started at start.
func (c Clock) Since(start time.Time) time.Duration {
	return c.charge(time.Since(start))
}

// charge scales a host reading and clamps it to [floor, ceiling].
func (c Clock) charge(d time.Duration) time.Duration {
	d = time.Duration(float64(d) * c.scale)
	if d < floor {
		return floor
	}
	if d > ceiling {
		return ceiling
	}
	return d
}
