package scenario

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"scl/trace"
)

// unlocked is a real lock whose acquire and release are skipped, so
// holders overlap.
type unlocked struct{ lock }

func (unlocked) acquire(context.Context, int, int) error { return nil }
func (unlocked) release(int)                             {}

// twice is a real lock whose Do runs the section twice, one after the
// other.
type twice struct{ lock }

func (l twice) do(i, key int, fn func()) { l.lock.do(i, key, func() { fn(); fn() }) }

// writeLocked takes the write lock for readers too, so the RWLock counts
// fewer reader ops than the driver granted.
type writeLocked struct{ *rwLock }

func (l writeLocked) acquire(context.Context, int, int) error { l.l.WLock(); return nil }
func (l writeLocked) release(int)                             { l.l.WUnlock() }

// corpusSpec loads a corpus scenario and lowers it to its real-lock spec.
func corpusSpec(t *testing.T, name string) Spec {
	t.Helper()
	s, err := LoadFile(filepath.Join("testdata", name+CorpusExt))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	return specOf(c)
}

// TestDriverReportsOverlap: the op loop's exclusion check catches
// holders the lock failed to exclude, on a Mutex and on an RWLock (a
// writer beside a reader).
func TestDriverReportsOverlap(t *testing.T) {
	for _, name := range []string{"herd", "oracle-rw-shared"} {
		s := corpusSpec(t, name)
		_, err := runCheck(s, func() lock { return unlocked{s.lock()} })
		if err == nil || !strings.Contains(err.Error(), "exclusion violated") {
			t.Errorf("%s without exclusion: want an exclusion failure, got %v", name, err)
		}
	}
}

// TestDriverReportsDoubleSection: a Do whose section runs twice fails
// the exactly-once check.
func TestDriverReportsDoubleSection(t *testing.T) {
	s := corpusSpec(t, "combine-storm")
	_, err := runCheck(s, func() lock { return twice{s.lock()} })
	if err == nil || !strings.Contains(err.Error(), "exactly-once broken") {
		t.Errorf("Do running its section twice: want an exactly-once failure, got %v", err)
	}
}

// TestDriverReportsLostReaderOps: an RWLock that counts fewer reader ops
// than were granted fails op conservation.
func TestDriverReportsLostReaderOps(t *testing.T) {
	s := corpusSpec(t, "oracle-rw-shared")
	_, err := runCheck(s, func() lock { return writeLocked{s.lock().(*rwLock)} })
	if err == nil || !strings.Contains(err.Error(), "op conservation broken") {
		t.Errorf("reader ops under-counted: want a conservation failure, got %v", err)
	}
}

// TestDriverReportsWaitBound: an acquire that waits past the set bound
// fails the run, and the same run is clean without the bound.
func TestDriverReportsWaitBound(t *testing.T) {
	s := corpusSpec(t, "herd")
	if _, err := runCheck(s, nil); err != nil {
		t.Fatalf("herd without a wait bound: %v", err)
	}
	s.WaitBound = time.Microsecond
	_, err := runCheck(s, nil)
	if err == nil || !strings.Contains(err.Error(), "bound exceeded") {
		t.Errorf("herd with a 1µs wait bound: want a bound failure, got %v", err)
	}
}

// TestObservationNeutral: turning observation on changes no decision.
// Every single-lock corpus scenario runs on the check substrate without
// and with a tracer (a trace.Ring installed with SetTracer on an
// RWLock, MutexSpec.Trace on a Mutex), and both runs must grant in the
// same order and time out the same acquires. A traced RWLock takes only
// its slow path, so this also holds the fast path to the slow path's
// decisions.
func TestObservationNeutral(t *testing.T) {
	corpus, err := LoadCorpus("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range corpus {
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Keyed) > 0 {
			continue
		}
		t.Run(s.Name, func(t *testing.T) {
			traced := specOf(c)
			plain, tracedLock := traced, traced.lock
			if traced.RW != nil {
				tracedLock = func() lock {
					l := newRWLock(traced.RW).(*rwLock)
					l.l.SetTracer(trace.NewRing(1 << 14))
					return l
				}
			} else {
				m := *traced.Mutex
				m.Trace = false
				plain.Mutex = &m
			}
			off, err := runCheck(plain, nil)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			on, err := runCheck(traced, tracedLock)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if !slices.Equal(off.Grants, on.Grants) {
				t.Errorf("grant order: untraced %v, traced %v", off.Grants, on.Grants)
			}
			if !slices.Equal(off.Timeouts, on.Timeouts) {
				t.Errorf("timeouts: untraced %v, traced %v", off.Timeouts, on.Timeouts)
			}
		})
	}
}
