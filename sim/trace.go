package sim

import (
	"time"

	"scl/trace"
)

// EnableTrace starts recording lock events as trace.Events (acquisitions,
// releases, slice transfers as KindHandoff, bans) across all locks
// created on this engine, keeping at most cap events (older events are
// dropped, newest kept). Each event carries the task's name in Name and
// no entity ID. Call before Run; read with TraceEvents afterwards.
func (e *Engine) EnableTrace(cap int) {
	if cap <= 0 {
		cap = 1 << 16
	}
	e.trace = &traceBuf{cap: cap}
}

// TraceEvents returns the recorded events in chronological order.
func (e *Engine) TraceEvents() []trace.Event {
	if e.trace == nil {
		return nil
	}
	return e.trace.events()
}

// traceBuf is a bounded ring of trace events.
type traceBuf struct {
	cap   int
	buf   []trace.Event
	start int
	full  bool
}

func (t *traceBuf) add(ev trace.Event) {
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, ev)
		return
	}
	t.buf[t.start] = ev
	t.start = (t.start + 1) % t.cap
	t.full = true
}

func (t *traceBuf) events() []trace.Event {
	if !t.full {
		out := make([]trace.Event, len(t.buf))
		copy(out, t.buf)
		return out
	}
	out := make([]trace.Event, 0, t.cap)
	out = append(out, t.buf[t.start:]...)
	out = append(out, t.buf[:t.start]...)
	return out
}

// traceEvent records one event if tracing is enabled.
func (e *Engine) traceEvent(kind trace.Kind, t *Task, detail time.Duration) {
	if e.trace == nil {
		return
	}
	e.trace.add(trace.Event{At: e.now, Kind: kind, Name: t.name, Detail: detail})
}
