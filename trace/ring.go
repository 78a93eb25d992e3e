package trace

import "sync/atomic"

// Ring is a lock-free bounded recorder of Events: writers never block and
// never take a lock, memory is fixed at construction, and when the buffer
// wraps the oldest events are dropped (and counted) rather than stalling
// the lock that is emitting. It is safe for any number of concurrent
// writers and readers, and its Record method makes it an scl.Tracer, so
// it can be plugged directly into scl.Options.Tracer (or SetTracer) as an
// always-on flight recorder.
//
// Each Record costs one atomic increment plus one small allocation; with
// tracing disabled (a nil Tracer) the locks pay only a nil check.
type Ring struct {
	mask  uint64
	slots []atomic.Pointer[record]
	head  atomic.Uint64 // next write index; head-1 is the newest event
}

// record tags the stored event with its write index so snapshot readers
// can detect a slot overwritten mid-scan.
type record struct {
	idx uint64
	ev  Event
}

// DefaultRingCap is the capacity used when NewRing is given a
// non-positive one: 64Ki events, a few MB of flight recorder.
const DefaultRingCap = 1 << 16

// NewRing returns a ring holding at most cap events (rounded up to a
// power of two; non-positive means DefaultRingCap).
func NewRing(cap int) *Ring {
	if cap <= 0 {
		cap = DefaultRingCap
	}
	n := 1
	for n < cap {
		n <<= 1
	}
	return &Ring{mask: uint64(n - 1), slots: make([]atomic.Pointer[record], n)}
}

// Cap returns the ring's capacity in events.
func (r *Ring) Cap() int { return len(r.slots) }

// Record stores one event, overwriting the oldest if the ring is full.
func (r *Ring) Record(ev Event) {
	i := r.head.Add(1) - 1
	r.slots[i&r.mask].Store(&record{idx: i, ev: ev})
}

// Seen returns the total number of events recorded since construction,
// including those already overwritten.
func (r *Ring) Seen() uint64 { return r.head.Load() }

// Dropped returns how many events have been dropped (overwritten by
// wrap-around). Seen() − Dropped() events are retrievable via Events.
func (r *Ring) Dropped() uint64 {
	if h, c := r.head.Load(), uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

// Events returns a snapshot of the retained events, oldest first. Slots
// overwritten by writers racing the snapshot are skipped (they belong to
// a newer generation and will appear in the next snapshot).
func (r *Ring) Events() []Event {
	head := r.head.Load()
	n := uint64(len(r.slots))
	if head < n {
		n = head
	}
	out := make([]Event, 0, n)
	for i := head - n; i < head; i++ {
		rec := r.slots[i&r.mask].Load()
		if rec == nil || rec.idx != i {
			continue // not yet published, or lapped by a newer write
		}
		out = append(out, rec.ev)
	}
	return out
}
