// Package trace defines the structured lock-event model for the real-time
// scl stack: the event types the locks deliver to an scl.Tracer, a lock-free
// bounded ring recorder (Ring) suitable for always-on production tracing,
// a JSON-lines dump format for offline analysis, and an aggregator that
// reconstructs the paper's fairness measurements — per-entity hold time,
// lock opportunity and Jain's index — from an event stream.
//
// The package mirrors the simulator's tracing (sim.TraceEvent) for the
// real locks, so a dump captured from a production process and a dump
// captured from a simulation can be replayed through the same tooling
// (cmd/scltop).
package trace

import (
	"fmt"
	"strings"
	"time"
)

// Kind classifies a lock event.
type Kind string

// Event kinds. These are the one description of each event the locks
// emit and of its Detail.
const (
	// KindAcquire: an entity acquired the lock. Detail is the time the
	// acquisition waited (queueing plus any ban slept out).
	KindAcquire Kind = "acquire"
	// KindRelease: an entity released the lock. Detail is the length of
	// the critical section that just ended.
	KindRelease Kind = "release"
	// KindSliceEnd: a lock slice expired and ownership is up for
	// transfer — at the release that overran it, or on the slice timer
	// if the owner stopped acquiring. Detail is the hold time accumulated
	// within the slice (on an RWLock: the outgoing phase's length).
	KindSliceEnd Kind = "slice-end"
	// KindBan: a penalty was imposed on an over-using entity. Detail is
	// the ban length (paper §4.2: computed at release, imposed at the
	// entity's next acquire).
	KindBan Kind = "ban"
	// KindHandoff: lock ownership was granted to a waiting entity (a
	// slice transfer, or an intra-entity sibling handoff within a live
	// slice). Detail is zero.
	KindHandoff Kind = "handoff"
	// KindAbandon: a cancellable acquisition (LockContext, RLockContext,
	// WLockContext) gave up — the context was cancelled while the entity
	// slept out a ban or sat in the waiter queue. Detail is the time the
	// attempt had waited before abandoning. No usage is charged and no
	// matching release follows.
	KindAbandon Kind = "abandon"
	// KindReap: the inactive-entity GC (scl.WithInactiveGC; the paper's
	// k-SCL §4.4) removed the entity's accounting state after it went
	// idle longer than the configured threshold. Detail is how long the
	// entity had been idle when reaped. If the entity returns it
	// re-registers through the join-credit floor: a fresh acquire
	// follows, and no event marks the re-registration itself.
	KindReap Kind = "reap"
	// KindCombine: the releasing lock holder drained a batch of published
	// critical sections (Handle.Do / RWLock.Do) and executed them on the
	// publishers' behalf. Entity is the combiner; Detail is the summed
	// critical-section time of the batch. One acquire/release pair per
	// combined entity follows under the publishing entity's own ID, so
	// per-entity accounting in the stream is unchanged — this event only
	// identifies who did the work.
	KindCombine Kind = "combine"
)

// Event is one structured lock event. Events carry process-local
// monotonic timestamps (scl's internal clock); only differences between
// timestamps of one process are meaningful.
type Event struct {
	// At is the event time on the process-local monotonic clock.
	At time.Duration `json:"at"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Lock is the emitting lock's configured name ("" if unnamed).
	Lock string `json:"lock,omitempty"`
	// Entity is the schedulable entity's ID (Handle.ID for scl.Mutex;
	// the class pseudo-IDs EntityReaders/EntityWriters for scl.RWLock).
	Entity int64 `json:"entity"`
	// Name is the entity's label, when one was set.
	Name string `json:"name,omitempty"`
	// Detail is the kind-specific duration documented on each Kind.
	Detail time.Duration `json:"detail,omitempty"`
}

// Pseudo entity IDs used by class-based locks (scl.RWLock), which account
// per class rather than per registered entity.
const (
	EntityReaders int64 = -1
	EntityWriters int64 = -2
)

// Label returns the entity's display name: Name when set, otherwise a
// stable synthetic label from the ID.
func (ev Event) Label() string {
	if ev.Name != "" {
		return ev.Name
	}
	switch ev.Entity {
	case EntityReaders:
		return "readers"
	case EntityWriters:
		return "writers"
	}
	return fmt.Sprintf("entity-%d", ev.Entity)
}

// String renders the event as one human-readable log line.
func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12v  %-9s %s", ev.At, ev.Kind, ev.Label())
	if ev.Lock != "" {
		fmt.Fprintf(&b, " @%s", ev.Lock)
	}
	switch ev.Kind {
	case KindRelease:
		fmt.Fprintf(&b, "  held %v", ev.Detail)
	case KindBan:
		fmt.Fprintf(&b, "  banned %v", ev.Detail)
	case KindSliceEnd:
		fmt.Fprintf(&b, "  used %v", ev.Detail)
	case KindAbandon:
		fmt.Fprintf(&b, "  gave up after %v", ev.Detail)
	case KindReap:
		fmt.Fprintf(&b, "  reaped after %v idle", ev.Detail)
	case KindCombine:
		fmt.Fprintf(&b, "  combined %v", ev.Detail)
	case KindAcquire:
		if ev.Detail > 0 {
			fmt.Fprintf(&b, "  waited %v", ev.Detail)
		}
	}
	return b.String()
}

// Format renders events as a text log, one line per event.
func Format(evs []Event) string {
	var b strings.Builder
	for _, ev := range evs {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}
