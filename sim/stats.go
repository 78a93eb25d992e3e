package sim

import (
	"time"

	"scl/internal/metrics"
	"scl/trace"
)

// LockStats accumulates per-lock measurements: per-task hold time and
// acquisition counts, lock idle time (the shared component of lock
// opportunity, paper eq. 1), and per-task wait-time samples.
type LockStats struct {
	e            *Engine
	holders      int
	idleStart    time.Duration
	idle         time.Duration
	acquisitions map[int]int64
	hold         map[int]time.Duration
	inFlight     map[int]time.Duration // acquire timestamps of current holders
	waits        map[int]*metrics.Reservoir
	waitCap      int
}

func newLockStats(e *Engine) *LockStats {
	return &LockStats{
		e:            e,
		acquisitions: make(map[int]int64),
		hold:         make(map[int]time.Duration),
		inFlight:     make(map[int]time.Duration),
		waits:        make(map[int]*metrics.Reservoir),
		waitCap:      1 << 16,
	}
}

// onAcquire records that t acquired (or, for readers, joined) the lock.
func (s *LockStats) onAcquire(t *Task) {
	if s.holders == 0 {
		s.idle += s.e.now - s.idleStart
	}
	s.holders++
	s.acquisitions[t.id]++
	s.inFlight[t.id] = s.e.now
	s.e.traceEvent(trace.KindAcquire, t, 0)
}

// onRelease records a release and the hold duration.
func (s *LockStats) onRelease(t *Task, hold time.Duration) {
	s.holders--
	if s.holders == 0 {
		s.idleStart = s.e.now
	}
	s.hold[t.id] += hold
	delete(s.inFlight, t.id)
	s.e.traceEvent(trace.KindRelease, t, hold)
}

// onWait records how long t waited between requesting and acquiring.
func (s *LockStats) onWait(t *Task, wait time.Duration) {
	r := s.waits[t.id]
	if r == nil {
		r = metrics.NewReservoir(s.waitCap, int64(t.id)*7919+s.e.cfg.Seed)
		s.waits[t.id] = r
	}
	r.Add(wait)
}

// Idle returns the total time the lock spent unheld, clipped to the
// simulation horizon.
func (s *LockStats) Idle() time.Duration {
	idle := s.idle
	if s.holders == 0 && s.e.now > s.idleStart {
		idle += s.e.now - s.idleStart
	}
	return idle
}

// Hold returns task t's cumulative hold time, including a still-in-flight
// critical section (a hold cut off by the simulation horizon still counts,
// as it would in the paper's wall-clock measurements).
func (s *LockStats) Hold(taskID int) time.Duration {
	h := s.hold[taskID]
	if at, ok := s.inFlight[taskID]; ok && s.e.now > at {
		h += s.e.now - at
	}
	return h
}

// Acquisitions returns task t's acquisition count.
func (s *LockStats) Acquisitions(taskID int) int64 { return s.acquisitions[taskID] }

// WaitSamples returns a (possibly reservoir-sampled) sample of task t's
// wait times.
func (s *LockStats) WaitSamples(taskID int) []time.Duration {
	if r := s.waits[taskID]; r != nil {
		return r.Samples()
	}
	return nil
}

// LOT returns the lock opportunity time of the given task per the paper's
// equation (1): its own critical-section time plus the lock's idle time.
func (s *LockStats) LOT(taskID int) time.Duration {
	return s.Hold(taskID) + s.Idle()
}

// JainLOT computes Jain's fairness index over the lock opportunity times
// of the given tasks (paper Table 2).
func (s *LockStats) JainLOT(taskIDs ...int) float64 {
	xs := make([]float64, len(taskIDs))
	for i, id := range taskIDs {
		xs[i] = float64(s.LOT(id))
	}
	return metrics.Jain(xs)
}

// JainHold computes Jain's fairness index over per-task lock hold times
// (paper Figure 5b).
func (s *LockStats) JainHold(taskIDs ...int) float64 {
	xs := make([]float64, len(taskIDs))
	for i, id := range taskIDs {
		xs[i] = float64(s.Hold(id))
	}
	return metrics.Jain(xs)
}

// TotalHold sums hold time over all tasks (including in-flight holds).
func (s *LockStats) TotalHold() time.Duration {
	var sum time.Duration
	for id := range s.hold {
		sum += s.Hold(id)
	}
	for id := range s.inFlight {
		if _, seen := s.hold[id]; !seen {
			sum += s.Hold(id)
		}
	}
	return sum
}
