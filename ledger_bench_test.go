package scl

import (
	"testing"
	"time"

	"scl/internal/check"
)

// The cost ledger (EXPERIMENTS.md) pins a slow-path lock operation's cost
// to its layers: each benchmark here measures one ingredient that
// KSCLUncontended pays per Lock+Unlock, beside the accountant
// (internal/core) and the reservoirs (internal/metrics), which benchmark
// in their own packages. `make bench` records all three packages.

var sinkDuration time.Duration

// BenchmarkMonotime is one read of the locks' clock on the wall clock:
// the check.Now nil test plus time.Since.
func BenchmarkMonotime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sinkDuration += monotime()
	}
}

// BenchmarkMonotimeChecked is the same read under an installed checker,
// where it returns the virtual clock.
func BenchmarkMonotimeChecked(b *testing.B) {
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)
	for i := 0; i < b.N; i++ {
		sinkDuration += monotime()
	}
}

// BenchmarkCheckPoint is one decision-site marker with no checker
// installed: the price every named site costs a production lock.
func BenchmarkCheckPoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		check.Point("bench.point")
	}
}

// BenchmarkLockMu is one uncontended take and release of a lock's
// internal mutex through the checker seam.
func BenchmarkLockMu(b *testing.B) {
	m := NewMutex(Options{Slice: -1})
	for i := 0; i < b.N; i++ {
		m.lockMu()
		m.unlockMu()
	}
}

// BenchmarkStatsAcquireRelease is the per-entity stats booking of one
// slow-path hold: onAcquire and onRelease through a handle's cached
// reference, with both reservoirs full.
func BenchmarkStatsAcquireRelease(b *testing.B) {
	s := newLockStats()
	ref := &entityRef{id: 1}
	now := s.idleStart
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.onAcquire(ref, "", now, 0)
		now += time.Microsecond
		s.onRelease(ref, now)
	}
}

// BenchmarkChanPingPong is the bare park/wake a queued waiter pays: two
// goroutines hand a token back and forth through buffered(1) channels,
// the waiter's wake channel shape. One op is one handoff.
func BenchmarkChanPingPong(b *testing.B) {
	ping, pong := make(chan struct{}, 1), make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(done)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i += 2 {
		ping <- struct{}{}
		<-pong
	}
	b.StopTimer()
	close(ping)
	<-done
}
