package scl

import (
	"time"

	"scl/internal/core"
	"scl/trace"
)

// Tracer receives structured lock events from the real-time locks. Every
// event reaches one method, Record; its Kind says what happened, and the
// trace.Kind constants document each kind and its Detail. Install a
// Tracer via Options.Tracer (Mutex) or SetTracer; a nil Tracer costs the
// locks only a nil check per event.
//
// Record is called synchronously from lock operations. Slow-path events
// fire with the lock's internal mutex held; fast-path events (the slice
// owner's lock-free acquire/release) fire without it, so events from
// distinct handles may arrive concurrently — implementations must be
// concurrency-safe, fast, must not block, and must not call back into
// the lock. trace.Ring is the built-in implementation — a lock-free
// bounded flight recorder safe to leave enabled in production.
type Tracer interface {
	Record(trace.Event)
}

var _ Tracer = (*trace.Ring)(nil)

// emit delivers one event of this lock to the installed tracer. It is
// small enough to inline, so an untraced event costs only the nil check
// at the call site; record builds the event out of line.
func (m *Mutex) emit(kind trace.Kind, now time.Duration, id core.ID, name string, detail time.Duration) {
	if m.tracer.p.Load() != nil {
		m.record(kind, now, id, name, detail)
	}
}

//go:noinline
func (m *Mutex) record(kind trace.Kind, now time.Duration, id core.ID, name string, detail time.Duration) {
	if t := m.tracer.load(); t != nil { // a concurrent SetTracer(nil) may have won
		t.Record(trace.Event{At: now, Kind: kind, Lock: m.name, Entity: int64(id), Name: name, Detail: detail})
	}
}

// emit delivers one event of this lock to the installed tracer; see
// Mutex.emit. The class is the entity, so RW events carry no name.
func (l *RWLock) emit(kind trace.Kind, now time.Duration, entity int64, detail time.Duration) {
	if l.tracer.p.Load() != nil {
		l.record(kind, now, entity, detail)
	}
}

//go:noinline
func (l *RWLock) record(kind trace.Kind, now time.Duration, entity int64, detail time.Duration) {
	if t := l.tracer.load(); t != nil {
		t.Record(trace.Event{At: now, Kind: kind, Lock: l.name, Entity: entity, Detail: detail})
	}
}
