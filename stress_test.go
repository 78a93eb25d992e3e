package scl

import (
	"context"
	"flag"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scl/trace"
)

// stressLen is the per-test duration of the contended stress suites. The
// default keeps them short enough for the race gate while still crossing
// many slice boundaries (slices are 50µs–1ms below); soak runs raise it,
// e.g. `go test -race -run Stress -scl.stress 30s .`.
var stressLen = flag.Duration("scl.stress", 300*time.Millisecond, "duration of each contended stress run")

// stressDuration returns the configured stress length, shortened under
// -short so `go test -short ./...` pays milliseconds, not seconds.
func stressDuration() time.Duration {
	if testing.Short() {
		return 50 * time.Millisecond
	}
	return *stressLen
}

// stressSlices runs a Mutex stress body twice, as subtests: on a u-SCL
// with the test's own slice ("uscl"), and on a k-SCL ("kscl"), whose
// slice ends at every release with no slice timer behind it.
func stressSlices(t *testing.T, slice time.Duration, body func(t *testing.T, m *Mutex)) {
	for _, c := range []struct {
		name  string
		slice time.Duration
	}{{"uscl", slice}, {"kscl", -1}} {
		t.Run(c.name, func(t *testing.T) { body(t, NewMutex(Options{Slice: c.slice})) })
	}
}

// TestMutexStressContended hammers one Mutex from N goroutines spread
// over M entities (some sharing an entity through Sibling) and checks the
// two invariants the fast path must not break: mutual exclusion (a
// plainly-guarded counter stays consistent) and no lost wakeups (every
// goroutine keeps making progress to the deadline; a dropped grant would
// hang the test).
func TestMutexStressContended(t *testing.T) {
	stressSlices(t, 100*time.Microsecond, func(t *testing.T, m *Mutex) {
		const entities = 4
		const perEntity = 2 // goroutines per entity (siblings)
		var handles []*Handle
		for e := 0; e < entities; e++ {
			h := m.Register()
			handles = append(handles, h)
			for s := 1; s < perEntity; s++ {
				handles = append(handles, h.Sibling())
			}
		}

		var guarded int64 // mutated only inside the critical section, unsynchronized
		var inCS atomic.Int32
		var violations atomic.Int64
		ops := make([]int64, len(handles))

		deadline := time.Now().Add(stressDuration())
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *Handle) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					h.Lock()
					if inCS.Add(1) != 1 {
						violations.Add(1)
					}
					guarded++
					v := guarded
					runtime.Gosched() // widen the window for exclusion violations
					if guarded != v {
						violations.Add(1)
					}
					inCS.Add(-1)
					h.Unlock()
					ops[i]++
				}
			}(i, h)
		}
		wg.Wait()

		if n := violations.Load(); n > 0 {
			t.Fatalf("%d mutual-exclusion violations", n)
		}
		var total int64
		for i, n := range ops {
			if n == 0 {
				t.Errorf("goroutine %d made no progress (lost wakeup?)", i)
			}
			total += n
		}
		if guarded != total {
			t.Fatalf("guarded counter = %d, want %d (lost increments)", guarded, total)
		}
		s := m.Stats()
		var acq int64
		for _, id := range s.IDs() {
			acq += s.Acquisitions[id]
		}
		if acq != total {
			t.Fatalf("stats count %d acquisitions, observed %d", acq, total)
		}
		for _, h := range handles {
			h.Close()
		}
	})
}

// TestMutexStressProportionalShare saturates a Mutex with equal-weight
// entities that each hog their critical sections, and checks every entity
// receives lock opportunity within 2× of its proportional share — the
// paper's core guarantee, which the deferred fast-path accounting must
// preserve.
func TestMutexStressProportionalShare(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive stress")
	}
	m := NewMutex(Options{Slice: time.Millisecond})
	const entities = 3
	var handles []*Handle
	for e := 0; e < entities; e++ {
		handles = append(handles, m.Register())
	}
	deadline := time.Now().Add(2 * stressDuration())
	var wg sync.WaitGroup
	for _, h := range handles {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				h.Lock()
				spinFor(50 * time.Microsecond) // a hog: CS ≈ half a slice
				h.Unlock()
			}
		}(h)
	}
	wg.Wait()

	s := m.Stats()
	share := 1.0 / entities
	for _, h := range handles {
		frac := float64(s.LOT(h.ID())) / float64(s.Elapsed)
		if frac < share/2 || frac > 2*share {
			t.Errorf("entity %d lock opportunity fraction %.3f, want within 2x of share %.3f",
				h.ID(), frac, share)
		}
	}
}

// spinFor busy-waits without yielding the lock, modeling a CPU-bound
// critical section (sleeping would make every hold look identical under
// the scheduler's timer resolution).
func spinFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// TestRWLockStressContended drives an RWLock with concurrent readers and
// writers and checks reader/writer exclusion: a writer must never observe
// another writer or any reader inside the lock, and readers must never
// observe an active writer.
func TestRWLockStressContended(t *testing.T) {
	l := NewRWLock(9, 1, 200*time.Microsecond)

	var readers atomic.Int32
	var writers atomic.Int32
	var violations atomic.Int64
	var guarded int64 // written only by writers, under the write lock

	deadline := time.Now().Add(stressDuration())
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.RLock()
				readers.Add(1)
				if writers.Load() != 0 {
					violations.Add(1)
				}
				_ = guarded
				readers.Add(-1)
				l.RUnlock()
			}
		}()
	}
	var wrote int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.WLock()
				if writers.Add(1) != 1 || readers.Load() != 0 {
					violations.Add(1)
				}
				guarded++
				atomic.AddInt64(&wrote, 1)
				writers.Add(-1)
				l.WUnlock()
			}
		}()
	}
	wg.Wait()

	if n := violations.Load(); n > 0 {
		t.Fatalf("%d rw exclusion violations", n)
	}
	if guarded != wrote {
		t.Fatalf("guarded counter = %d, want %d", guarded, wrote)
	}
	s := l.Stats()
	if s.ReaderOps == 0 || s.WriterOps == 0 {
		t.Fatalf("starved class: %d reader / %d writer ops", s.ReaderOps, s.WriterOps)
	}
}

// TestMutexTracerSwapDuringStress swaps tracers in and out while
// goroutines hammer the lock through the fast path; under -race this
// pins down the SetTracer data race the atomic tracer pointer fixes, and
// the recording tracer's event stream must stay well-formed (no acquire
// after acquire for the same exclusive lock).
func TestMutexTracerSwapDuringStress(t *testing.T) {
	m := NewMutex(Options{Slice: 100 * time.Microsecond})
	a := m.Register()
	b := m.Register()

	deadline := time.Now().Add(stressDuration())
	var wg sync.WaitGroup
	for _, h := range []*Handle{a, b} {
		wg.Add(1)
		go func(h *Handle) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				h.Lock()
				h.Unlock()
			}
		}(h)
	}

	rec := &recTracer{}
	ring := trace.NewRing(1 << 10)
	for time.Now().Before(deadline) {
		m.SetTracer(rec)
		time.Sleep(time.Millisecond)
		m.SetTracer(ring)
		time.Sleep(time.Millisecond)
		m.SetTracer(nil)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	if len(rec.events()) == 0 {
		t.Fatal("recording tracer saw no events while installed")
	}
}

// TestMutexStressSiblingMix hammers the lock with three sibling handles of
// one entity plus a foreign entity under a tiny slice — the mix that
// exercises the intra-class handoff against the fast path hardest. If
// mutual exclusion ever breaks (two concurrent holders), the guarded
// counter detects it. (Folded in from the PR 2 throwaway review test,
// which ran a fixed 3 s; the duration now follows -scl.stress and -short.)
func TestMutexStressSiblingMix(t *testing.T) {
	stressSlices(t, 50*time.Microsecond, func(t *testing.T, m *Mutex) {
		hA := m.Register()
		hA2 := hA.Sibling()
		hA3 := hA.Sibling()
		hB := m.Register()

		var inCS atomic.Int32
		var violations atomic.Int32
		deadline := time.Now().Add(stressDuration())
		var wg sync.WaitGroup

		work := func(h *Handle) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				h.Lock()
				if inCS.Add(1) != 1 {
					violations.Add(1)
				}
				for i := 0; i < 200; i++ {
					if inCS.Load() != 1 {
						violations.Add(1)
						break
					}
				}
				inCS.Add(-1)
				h.Unlock()
			}
		}
		wg.Add(4)
		go work(hA)
		go work(hA2)
		go work(hA3)
		go work(hB)
		wg.Wait()
		if n := violations.Load(); n > 0 {
			t.Fatalf("mutual exclusion violated %d times", n)
		}
	})
}

// TestMutexStressCancel is the cancellation-race suite: waiters abandon
// randomly under a tiny slice while others keep acquiring, checking the
// three invariants cancellation-safe waiter removal must preserve:
//
//   - mutual exclusion (guarded-counter pattern: a successful LockContext
//     is a real exclusive hold);
//   - no lost grants — a grant racing an abandon is re-routed, never
//     dropped, so the lock keeps making progress throughout and a final
//     sequential acquire on every handle succeeds;
//   - no accountant leak: after all handles close, the accounting engine
//     tracks exactly as many entities as before the stress (an abandoned
//     waiter leaves the books as if it never queued).
//
// Run it long (the acceptance soak) with:
//
//	go test -race -run TestMutexStressCancel -scl.stress 30s .
func TestMutexStressCancel(t *testing.T) {
	stressSlices(t, 50*time.Microsecond, func(t *testing.T, m *Mutex) {
		const entities = 4
		const perEntity = 2
		var handles []*Handle
		for e := 0; e < entities; e++ {
			h := m.Register()
			handles = append(handles, h)
			for s := 1; s < perEntity; s++ {
				handles = append(handles, h.Sibling())
			}
		}
		baseline := func() int {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.acct.Len()
		}()

		var guarded int64 // mutated only inside the critical section, unsynchronized
		var inCS atomic.Int32
		var violations atomic.Int64
		var acquired, cancelled atomic.Int64
		ops := make([]int64, len(handles))

		deadline := time.Now().Add(stressDuration())
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *Handle) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i) + 1))
				for time.Now().Before(deadline) {
					// A spread of deadlines around the slice length: some
					// cancel before the queue moves, some mid-queue, some
					// race the grant itself, some acquire cleanly.
					var ctx context.Context
					var cancel context.CancelFunc
					switch rng.Intn(4) {
					case 0:
						ctx, cancel = context.WithTimeout(context.Background(), time.Duration(rng.Intn(30))*time.Microsecond)
					case 1:
						ctx, cancel = context.WithTimeout(context.Background(), time.Duration(50+rng.Intn(100))*time.Microsecond)
					default:
						ctx, cancel = context.WithTimeout(context.Background(), time.Second)
					}
					err := h.LockContext(ctx)
					if err != nil {
						cancel()
						cancelled.Add(1)
						continue
					}
					if inCS.Add(1) != 1 {
						violations.Add(1)
					}
					guarded++
					v := guarded
					runtime.Gosched() // widen the window for exclusion violations
					if guarded != v {
						violations.Add(1)
					}
					inCS.Add(-1)
					h.Unlock()
					cancel()
					acquired.Add(1)
					ops[i]++
				}
			}(i, h)
		}
		wg.Wait()

		if n := violations.Load(); n > 0 {
			t.Fatalf("%d mutual-exclusion violations", n)
		}
		var total int64
		for _, n := range ops {
			total += n
		}
		if guarded != total {
			t.Fatalf("guarded counter = %d, want %d (lost increments)", guarded, total)
		}
		if acquired.Load() == 0 {
			t.Fatal("no goroutine ever acquired — the lock wedged")
		}
		// Liveness after the storm: if any grant had been dropped, the queue
		// would be wedged behind a transfer that never completes and these
		// sequential acquisitions would time out.
		for i, h := range handles {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := h.LockContext(ctx); err != nil {
				t.Fatalf("handle %d could not acquire after stress (lost grant?): %v", i, err)
			}
			h.Unlock()
			cancel()
		}
		t.Logf("acquired %d, cancelled %d", acquired.Load(), cancelled.Load())

		// Cancellation must not leak accounting state: closing every handle
		// returns the accountant to empty, exactly as if no waiter had ever
		// queued (abandoned attempts registered nothing).
		if got := func() int {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.acct.Len()
		}(); got != baseline {
			t.Fatalf("accountant tracks %d entities during stress, want baseline %d", got, baseline)
		}
		for _, h := range handles {
			h.Close()
		}
		if got := func() int {
			m.mu.Lock()
			defer m.mu.Unlock()
			return m.acct.Len()
		}(); got != 0 {
			t.Fatalf("accountant still tracks %d entities after all handles closed", got)
		}
	})
}

// TestRWLockStressCancel drives an RWLock with readers and writers whose
// contexts cancel randomly, checking rw exclusion and that abandoned
// grants are released rather than lost (the lock keeps serving both
// classes and drains cleanly).
func TestRWLockStressCancel(t *testing.T) {
	l := NewRWLock(3, 1, 200*time.Microsecond)

	var readers atomic.Int32
	var writers atomic.Int32
	var violations atomic.Int64
	var acquired atomic.Int64

	deadline := time.Now().Add(stressDuration())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 100))
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(20+rng.Intn(400))*time.Microsecond)
				if err := l.RLockContext(ctx); err == nil {
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlock()
					acquired.Add(1)
				}
				cancel()
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 200))
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(20+rng.Intn(400))*time.Microsecond)
				if err := l.WLockContext(ctx); err == nil {
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					writers.Add(-1)
					l.WUnlock()
					acquired.Add(1)
				}
				cancel()
			}
		}(i)
	}
	wg.Wait()

	if n := violations.Load(); n > 0 {
		t.Fatalf("%d rw exclusion violations", n)
	}
	if acquired.Load() == 0 {
		t.Fatal("no acquisition ever succeeded — the lock wedged")
	}
	// Drain check: both classes must still be able to get in.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.WLockContext(ctx); err != nil {
		t.Fatalf("writer cannot acquire after stress (lost grant?): %v", err)
	}
	l.WUnlock()
	if err := l.RLockContext(ctx); err != nil {
		t.Fatalf("reader cannot acquire after stress (lost grant?): %v", err)
	}
	l.RUnlock()
}

// TestMutexStressCombine hammers one Mutex with a mix of combining
// (Handle.Do) and classic (Lock/Unlock, LockContext) users, so drained
// batches, withdrawn publishers, rejected banned publishers, and
// ordinary grants interleave under the race detector. The invariants
// are those of TestMutexStressContended — mutual exclusion over a
// plainly-guarded counter, no lost wakeups — plus exactly-once
// execution of every published section (the guarded total must equal
// the op count) and clean accounting teardown. Soak it with
//
//	go test -race -run TestMutexStressCombine -scl.stress 30s .
func TestMutexStressCombine(t *testing.T) {
	stressSlices(t, 100*time.Microsecond, func(t *testing.T, m *Mutex) {
		const entities = 6
		var handles []*Handle
		for e := 0; e < entities; e++ {
			handles = append(handles, m.Register())
		}

		var guarded int64 // mutated only inside critical sections, unsynchronized
		var inCS atomic.Int32
		var violations atomic.Int64
		ops := make([]int64, len(handles))

		deadline := time.Now().Add(stressDuration())
		var wg sync.WaitGroup
		for i, h := range handles {
			wg.Add(1)
			go func(i int, h *Handle) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i) + 300))
				section := func() {
					if inCS.Add(1) != 1 {
						violations.Add(1)
					}
					guarded++
					v := guarded
					runtime.Gosched() // widen the window for exclusion violations
					if guarded != v {
						violations.Add(1)
					}
					inCS.Add(-1)
				}
				for time.Now().Before(deadline) {
					switch rng.Intn(4) {
					case 0: // classic path, same section
						h.Lock()
						section()
						h.Unlock()
					case 1: // cancellable classic acquire racing the combiners
						ctx, cancel := context.WithTimeout(context.Background(), time.Duration(30+rng.Intn(200))*time.Microsecond)
						if err := h.LockContext(ctx); err != nil {
							cancel()
							continue
						}
						section()
						h.Unlock()
						cancel()
					default:
						h.Do(section)
					}
					ops[i]++
				}
			}(i, h)
		}
		wg.Wait()

		if n := violations.Load(); n > 0 {
			t.Fatalf("%d mutual-exclusion violations", n)
		}
		var total int64
		for i, n := range ops {
			if n == 0 {
				t.Errorf("goroutine %d made no progress (lost wakeup?)", i)
			}
			total += n
		}
		if guarded != total {
			t.Fatalf("guarded counter = %d, want %d (lost or double-run sections)", guarded, total)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("invariants after combine stress: %v", err)
		}
		// Liveness after the storm: a stranded publisher or a claimed request
		// that never resolved would wedge these sequential combined sections.
		for i, h := range handles {
			done := make(chan struct{})
			go func(h *Handle) { h.Do(func() {}); close(done) }(h)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("handle %d: Do wedged after stress (stranded publisher?)", i)
			}
		}
		for _, h := range handles {
			h.Close()
		}
		if n := m.Entities(); n != 0 {
			t.Fatalf("%d entities still registered after all handles closed", n)
		}
	})
}

// TestRWLockStressCombine is the RW analogue: writers route their
// sections through RWLock.Do while cancellable readers flood the other
// class, so writer-side combining drains race phase flips, reader
// grants, and abandoning waiters. Checks rw exclusion, exactly-once
// writer sections, and post-storm liveness for both classes.
func TestRWLockStressCombine(t *testing.T) {
	l := NewRWLock(3, 1, 200*time.Microsecond)

	var readers atomic.Int32
	var writers atomic.Int32
	var violations atomic.Int64
	var wrote atomic.Int64
	var wops atomic.Int64

	deadline := time.Now().Add(stressDuration())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i) + 400))
			for time.Now().Before(deadline) {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(20+rng.Intn(400))*time.Microsecond)
				if err := l.RLockContext(ctx); err == nil {
					readers.Add(1)
					if writers.Load() != 0 {
						violations.Add(1)
					}
					readers.Add(-1)
					l.RUnlock()
				}
				cancel()
			}
		}(i)
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				l.Do(func() {
					if writers.Add(1) != 1 || readers.Load() != 0 {
						violations.Add(1)
					}
					wrote.Add(1)
					writers.Add(-1)
				})
				wops.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if n := violations.Load(); n > 0 {
		t.Fatalf("%d rw exclusion violations", n)
	}
	if got, want := wrote.Load(), wops.Load(); got != want {
		t.Fatalf("%d writer sections ran, want %d (lost or double-run sections)", got, want)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatalf("invariants after combine stress: %v", err)
	}
	// Drain check: both classes must still be able to get in, including
	// through the combining path.
	done := make(chan struct{})
	go func() { l.Do(func() {}); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("writer Do wedged after stress (stranded publisher?)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.RLockContext(ctx); err != nil {
		t.Fatalf("reader cannot acquire after stress (lost grant?): %v", err)
	}
	l.RUnlock()
}
