package check

import (
	"container/heap"
	"time"
)

// Timer is a virtual-clock replacement for *time.AfterFunc timers. Its
// Reset and Stop signatures match time.Timer so lock code can hold
// either behind a two-method interface. When the timer fires, f runs as
// a new managed goroutine (the scheduler decides when it interleaves,
// exactly the slice-timer-vs-fast-path races the checker targets).
//
// All methods must be called with the execution token held (from a
// managed goroutine) or while the scheduler is quiescent; a generation
// counter resolves Reset/Stop races against an already-queued firing,
// mirroring time.Timer's contract for AfterFunc timers.
type Timer struct {
	s       *Sched
	f       func()
	name    string
	gen     uint64
	pending bool
}

// AfterFunc arms a virtual timer calling f after d on the virtual
// clock. handled=false (and a nil Timer) when the caller is unmanaged —
// the caller must fall back to time.AfterFunc.
func AfterFunc(d time.Duration, f func()) (*Timer, bool) {
	s, _ := cur()
	if s == nil {
		return nil, false
	}
	t := &Timer{s: s, f: f, name: "timer"}
	t.arm(d)
	return t, true
}

// Reset re-arms the timer for d from the current virtual time,
// reporting whether it had been pending (time.Timer semantics).
func (t *Timer) Reset(d time.Duration) bool {
	was := t.pending
	t.arm(d)
	return was
}

// Stop disarms the timer, reporting whether it had been pending. A
// firing already chosen by the scheduler cannot be stopped (it runs as
// its own goroutine), matching the real AfterFunc race.
func (t *Timer) Stop() bool {
	was := t.pending
	t.gen++
	t.pending = false
	return was
}

func (t *Timer) arm(d time.Duration) {
	t.gen++
	t.pending = true
	s := t.s
	s.timerSeq++
	heap.Push(&s.timers, timerEntry{
		at:  s.now + d,
		seq: s.timerSeq,
		t:   t,
		gen: t.gen,
	})
}

// fireTimers launches every due, still-valid timer callback as a
// managed goroutine. Stale heap entries (superseded by Reset/Stop) are
// discarded by the generation check.
func (s *Sched) fireTimers() {
	for {
		e, ok := s.timers.peek()
		if !ok || e.at > s.now {
			return
		}
		heap.Pop(&s.timers)
		if e.gen != e.t.gen || !e.t.pending {
			continue
		}
		e.t.pending = false
		s.Go(e.t.name, e.t.f)
	}
}

// timerEntry is one armed firing in the timer heap, ordered by (at,
// seq) for deterministic tie-breaks.
type timerEntry struct {
	at  time.Duration
	seq int
	t   *Timer
	gen uint64
}

type timerHeap []timerEntry

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timerEntry)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h timerHeap) peek() (timerEntry, bool) {
	if len(h) == 0 {
		return timerEntry{}, false
	}
	return h[0], true
}
