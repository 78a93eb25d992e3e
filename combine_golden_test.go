package scl

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// combineStackLen counts the requests currently published on the
// combining stack (test-only; racy reads are fine for polling).
func combineStackLen(m *Mutex) int {
	n := 0
	for r := m.combine.head.Load(); r != nil; r = r.next.Load() {
		n++
	}
	return n
}

// TestCombineScriptedEventStream runs a fixed combining schedule and
// compares the tracer event stream against a golden transcript — the
// mutex-combining mirror of TestRWScriptedEventStream. The combine
// event must identify the combiner, and each combined section must
// still produce its own per-entity acquire/release pair, so stream
// consumers (scltop, the trace aggregator) see per-entity accounting
// unchanged whether or not the section ran on the publisher's own
// goroutine.
func TestCombineScriptedEventStream(t *testing.T) {
	rec := &recTracer{}
	m := NewMutex(Options{Slice: 40 * time.Millisecond, Name: "combine", Tracer: rec})
	a := m.Register().SetName("A")
	b := m.Register().SetName("B")
	c := m.Register().SetName("C")
	defer a.Close()
	defer b.Close()
	defer c.Close()

	// Script: A holds the lock while B, then C, publish their critical
	// sections. Publishing order is pinned by polling the stack between
	// the two Do calls, so A's release drains the LIFO stack in the
	// deterministic order C, B.
	a.Lock()
	var wg sync.WaitGroup
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
		for combineStackLen(m) < n {
			if time.Now().After(deadline) {
				t.Fatalf("combining stack never reached %d requests", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	wg.Add(2)
	go func() { defer wg.Done(); b.Do(section("B")) }()
	waitPublished(1)
	go func() { defer wg.Done(); c.Do(section("C")) }()
	waitPublished(2)
	a.Unlock() // drains the batch on the way out
	wg.Wait()

	got := normalize(rec.events())
	want := strings.Join([]string{
		"acquire A",
		"release A",
		"combine A",
		"acquire C",
		"release C",
		"acquire B",
		"release B",
	}, "\n") + "\n"
	if got != want {
		t.Fatalf("event stream diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Exactly-once, in drain order.
	mu.Lock()
	if len(ran) != 2 || ran[0] != "C" || ran[1] != "B" {
		t.Fatalf("sections ran %v, want [C B]", ran)
	}
	mu.Unlock()

	// The same schedule must land in the counters: A executed two
	// sections for others, and each publisher owns exactly one
	// acquisition that a combiner ran on its behalf.
	s := m.Stats()
	if s.Combines[a.ID()] != 2 || s.Combined[a.ID()] != 0 {
		t.Fatalf("combiner A: combines %d / combined %d, want 2 / 0", s.Combines[a.ID()], s.Combined[a.ID()])
	}
	for _, h := range []*Handle{b, c} {
		if s.Combined[h.ID()] != 1 || s.Acquisitions[h.ID()] != 1 {
			t.Fatalf("publisher %s: combined %d / acquisitions %d, want 1 / 1",
				s.Names[h.ID()], s.Combined[h.ID()], s.Acquisitions[h.ID()])
		}
	}
}
