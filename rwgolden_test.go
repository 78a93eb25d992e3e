package scl

import (
	"strings"
	"sync"
	"testing"
	"time"

	"scl/trace"
)

// normalizeRW renders the deterministic parts of an RW-SCL event stream:
// kind and class pseudo-entity, one line per event. Timestamps and
// durations are wall-clock and excluded.
func normalizeRW(evs []trace.Event) string {
	var b strings.Builder
	for _, ev := range evs {
		class := "readers"
		if ev.Entity == trace.EntityWriters {
			class = "writers"
		}
		b.WriteString(string(ev.Kind))
		b.WriteByte(' ')
		b.WriteString(class)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRWScriptedEventStream runs a fixed reader/writer schedule and
// compares the tracer event stream against a golden transcript recorded
// on the pre-sharding (single packed-word) read-indicator
// implementation. The distributed read indicator must reproduce it
// byte-for-byte: installing a Tracer disables the fast path, so the
// traced slow path — grant order, slice ends, handoffs — is the
// compatibility surface sharding must not move.
func TestRWScriptedEventStream(t *testing.T) {
	rec := &recTracer{}
	// 1:1 weights on a 300ms period: 150ms read slice, 150ms write
	// slice. The margins are deliberately huge so a loaded machine
	// cannot reorder the script's coarse beats.
	l := NewRWLock(1, 1, 300*time.Millisecond)
	l.SetTracer(rec)

	l.RLock() // read phase: inline acquire

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.WLock() // queues until the write slice begins and the reader drains
		time.Sleep(20 * time.Millisecond)
		l.WUnlock()
	}()

	// Wait until the writer is actually queued (the waiters bit is up),
	// then sleep past the read slice end: the phase timer fires at
	// 150ms, ending the read slice while the reader still holds.
	deadline := time.Now().Add(5 * time.Second)
	for l.word.Load()&rwWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writer never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(200 * time.Millisecond)

	l.RUnlock() // drains the read side; the queued writer is granted
	wg.Wait()

	// The write slice restarted when the writer entered (~200ms), so it
	// runs until ~350ms. This RLock queues during it and is granted by
	// the phase timer at the write slice end.
	l.RLock()
	l.RUnlock()

	got := normalizeRW(rec.events())
	want := strings.Join([]string{
		"acquire readers",
		"slice-end readers",
		"release readers",
		"handoff writers",
		"acquire writers",
		"release writers",
		"slice-end writers",
		"handoff readers",
		"acquire readers",
		"release readers",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The same schedule must land in the class counters exactly.
	s := l.Stats()
	if s.ReaderOps != 2 || s.WriterOps != 1 {
		t.Fatalf("ops = %d readers / %d writers, want 2/1", s.ReaderOps, s.WriterOps)
	}
	if s.ReaderHold < 150*time.Millisecond {
		t.Fatalf("reader hold %v, want the ~200ms scripted hold", s.ReaderHold)
	}
	if s.WriterHold < 15*time.Millisecond {
		t.Fatalf("writer hold %v, want the ~20ms scripted hold", s.WriterHold)
	}
}

// rwCombineStackLen counts the writer sections currently published on
// the RWLock's combining stack (test-only; racy reads are fine for
// polling).
func rwCombineStackLen(l *RWLock) int {
	n := 0
	for r := l.wcombine.head.Load(); r != nil; r = r.next.Load() {
		n++
	}
	return n
}

// TestRWDoScriptedEventStream pins the traced event stream of RWLock.Do
// against a golden transcript: a Do on an idle lock (the classic write
// acquire), then two Do calls published while another writer holds,
// drained by that writer's WUnlock. The drain must emit one combine
// event for the writer class, then an acquire/release pair per combined
// section at the sections' own timestamps, in drain (LIFO) order.
func TestRWDoScriptedEventStream(t *testing.T) {
	rec := &recTracer{}
	l := NewRWLock(1, 1, 300*time.Millisecond)
	l.SetTracer(rec)

	var mu sync.Mutex
	var ran []string
	section := func(name string) func() {
		return func() {
			mu.Lock()
			ran = append(ran, name)
			mu.Unlock()
		}
	}
	waitPublished := func(n int) {
		deadline := time.Now().Add(5 * time.Second)
		for rwCombineStackLen(l) < n {
			if time.Now().After(deadline) {
				t.Fatalf("combining stack never reached %d requests", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// Idle lock in its initial read slice: the classic write acquire
	// queues, and the phase flips to the writers.
	l.Do(section("A"))

	l.WLock()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); l.Do(section("B")) }()
	waitPublished(1)
	go func() { defer wg.Done(); l.Do(section("C")) }()
	waitPublished(2)
	l.WUnlock() // drains C, B on the way out
	wg.Wait()

	got := normalizeRW(rec.events())
	want := strings.Join([]string{
		"slice-end readers",
		"handoff writers",
		"acquire writers",
		"release writers",
		"acquire writers",
		"release writers",
		"combine writers",
		"acquire writers",
		"release writers",
		"acquire writers",
		"release writers",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	mu.Lock()
	if len(ran) != 3 || ran[0] != "A" || ran[1] != "C" || ran[2] != "B" {
		t.Fatalf("sections ran %v, want [A C B]", ran)
	}
	mu.Unlock()
	s := l.Stats()
	if s.WriterOps != 4 || s.WriterCombined != 2 {
		t.Fatalf("writer ops %d / combined %d, want 4 / 2", s.WriterOps, s.WriterCombined)
	}
}
