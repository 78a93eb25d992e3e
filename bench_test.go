package scl_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each delegates to the corresponding runner in internal/experiments at a
// reduced scale (the full-scale tables are produced by cmd/sclbench) and
// reports the experiment's headline metrics through b.ReportMetric, so
// `go test -bench=.` regenerates the whole evaluation in miniature.

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scl"
	"scl/internal/experiments"
)

// benchScale keeps each benchmark iteration to roughly a second.
const benchScale = 0.05

func benchOptions(i int) experiments.Options {
	return experiments.Options{Seed: int64(i + 1), Scale: benchScale}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	var jain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		jain = res.Rows[len(res.Rows)-1].Jain // u-SCL row
	}
	b.ReportMetric(jain, "uscl-jain")
}

func benchFig5(b *testing.B, threads int) {
	var usclJain, mutexJain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchOptions(i), threads)
		if err != nil {
			b.Fatal(err)
		}
		mutexJain = res.Rows[0].JainHold
		usclJain = res.Rows[len(res.Rows)-1].JainHold
	}
	b.ReportMetric(usclJain, "uscl-jain")
	b.ReportMetric(mutexJain, "mutex-jain")
}

func BenchmarkFig5a(b *testing.B) { benchFig5(b, 2) }
func BenchmarkFig5c(b *testing.B) { benchFig5(b, 16) }

func BenchmarkFig6(b *testing.B) {
	var worst float64 = 1
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		worst = 1
		for _, row := range res.Rows {
			if row.Lock == "SCL" && row.Jain < worst {
				worst = row.Jain
			}
		}
	}
	b.ReportMetric(worst, "uscl-worst-weighted-jain")
}

func benchFig7(b *testing.B, variant string) {
	var usclTput float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(benchOptions(i), variant)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Lock == "SCL" && row.Threads == 2 {
				usclTput = row.Tput
			}
		}
	}
	b.ReportMetric(usclTput, "uscl-2thread-ops/sec")
}

func BenchmarkFig7a(b *testing.B) { benchFig7(b, "a") }
func BenchmarkFig7b(b *testing.B) { benchFig7(b, "b") }

func BenchmarkFig8a(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8a(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		best = 0
		for _, row := range res.Tput {
			for _, v := range row {
				if v > best {
					best = v
				}
			}
		}
	}
	b.ReportMetric(best, "best-ops/sec")
}

func BenchmarkFig8b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8b(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Config == "u-SCL 10µs" {
				p99 = float64(row.Summary.P99.Microseconds())
			}
		}
	}
	b.ReportMetric(p99, "uscl-10us-p99-us")
}

func BenchmarkFig10(b *testing.B) {
	var usclJain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		usclJain = res.Runs[1].JainHold
	}
	b.ReportMetric(usclJain, "uscl-jain")
}

func BenchmarkFig11(b *testing.B) {
	var writerTput float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		writerTput = res.Rows[1].WriterTput
	}
	b.ReportMetric(writerTput, "rwscl-writer-ops/sec")
}

func benchFig12(b *testing.B, variant string) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchOptions(i), variant)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig12a(b *testing.B) { benchFig12(b, "a") }
func BenchmarkFig12b(b *testing.B) { benchFig12(b, "b") }

func BenchmarkFig13(b *testing.B) {
	var below float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Lock == "k-SCL" && row.Proc == "victim" {
				below = row.Below10us
			}
		}
	}
	b.ReportMetric(below*100, "kscl-victim-under-10us-%")
}

func BenchmarkAblation(b *testing.B) {
	var fullJain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		fullJain = res.Rows[0].JainHold
	}
	b.ReportMetric(fullJain, "full-uscl-jain")
}

func BenchmarkGroups(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Groups(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].Tput > 0 {
			gain = res.Rows[1].Tput / res.Rows[0].Tput
		}
	}
	b.ReportMetric(gain, "grouped-tput-gain")
}

func BenchmarkChurn(b *testing.B) {
	var reaped int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Churn(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		reaped = res.Runs[1].Reaped
	}
	b.ReportMetric(float64(reaped), "reaped-entities")
}

func BenchmarkSoak(b *testing.B) {
	var lightJain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Soak(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		lightJain = res.LightJain
	}
	b.ReportMetric(lightJain, "light-jain")
}

func BenchmarkULE(b *testing.B) {
	var usclP99 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ULE(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Sched == "ule" && row.Lock == "u-SCL 10µs" {
				usclP99 = float64(row.Summary.P99.Microseconds())
			}
		}
	}
	b.ReportMetric(usclP99, "ule-uscl-p99-us")
}

func BenchmarkPI(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.PI(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if with := res.Rows[1].WaiterWait.P50; with > 0 {
			improvement = float64(res.Rows[0].WaiterWait.P50) / float64(with)
		}
	}
	b.ReportMetric(improvement, "pi-p50-wait-improvement")
}

func BenchmarkMultilock(b *testing.B) {
	var nestedJain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Multilock(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		nestedJain = res.Rows[1].L1Jain
	}
	b.ReportMetric(nestedJain, "nested-L1-jain")
}

func BenchmarkFig14(b *testing.B) {
	var improvement float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].VictimOps > 0 {
			improvement = float64(res.Rows[1].VictimOps) / float64(res.Rows[0].VictimOps)
		}
	}
	b.ReportMetric(improvement, "victim-ops-kscl/mutex")
}

// Sanity: every registered experiment has a benchmark above.
func TestEveryExperimentHasABenchmark(t *testing.T) {
	covered := map[string]bool{
		"table1": true, "table2": true, "fig5a": true, "fig5c": true,
		"fig6": true, "fig7a": true, "fig7b": true, "fig8a": true,
		"fig8b": true, "fig9": true, "fig10": true, "fig11": true,
		"fig12a": true, "fig12b": true, "fig13": true, "fig14": true,
		"ablation": true, "groups": true, "ule": true, "pi": true,
		"multilock": true, "churn": true, "soak": true,
	}
	for _, name := range experiments.Names() {
		if !covered[name] {
			t.Errorf("experiment %s has no benchmark", name)
		}
	}
	for name := range covered {
		if _, ok := experiments.Get(name); !ok {
			t.Errorf("benchmark covers unknown experiment %s", name)
		}
	}
}

// ---------------------------------------------------------------------------
// Real-lock fast-path benchmarks (not simulator experiments): the cost of
// the hot paths of scl.Mutex against sync.Mutex. `make bench` records these
// in BENCH_scl.json so each PR has a perf trajectory.
// ---------------------------------------------------------------------------

// BenchmarkMutexOwnerReacquire measures the paper's lock-slice fast path:
// one entity repeatedly re-acquiring a lock it owns the slice for. This is
// the number the atomic slice-owner fast path exists to improve.
func BenchmarkMutexOwnerReacquire(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: time.Hour})
	h := m.Register()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lock()
		h.Unlock()
	}
}

// BenchmarkMutexOwnerReacquireQueued is BenchmarkMutexOwnerReacquire
// with another entity's LockContext waiter parked behind the hour-long
// slice for the whole loop. The foreign waiter waits out the slice, so the
// owner's re-acquires and releases stay on the fast path; only a queued
// sibling of the owner would send its releases to the slow path.
func BenchmarkMutexOwnerReacquireQueued(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: time.Hour})
	h := m.Register()
	other := m.Register()
	h.Lock()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- other.LockContext(ctx) }()
	for scl.QueueLen(m) == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	h.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lock()
		h.Unlock()
	}
	b.StopTimer()
	cancel()
	if err := <-errc; err == nil {
		b.Fatal("the foreign waiter was granted inside the owner's slice")
	}
}

// BenchmarkSyncMutexReacquire is the sync.Mutex reference for the same
// single-owner reacquire pattern.
func BenchmarkSyncMutexReacquire(b *testing.B) {
	var m sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

// BenchmarkMutexFastPath is BenchmarkMutexOwnerReacquire with the
// inactive-entity GC armed: the lock-free owner-reacquire path with a
// live WithInactiveGC threshold. The reap scan is piggybacked on slice
// boundaries and rate-limited, so this must track OwnerReacquire — any
// gap is GC overhead leaking into the fast path.
func BenchmarkMutexFastPath(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: time.Hour}, scl.WithInactiveGC(time.Hour))
	h := m.Register()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lock()
		h.Unlock()
	}
}

// BenchmarkMutexChurn measures the entity-lifecycle cost the GC bounds:
// each iteration registers a fresh entity, takes the lock once, and
// departs without Close, leaving cleanup to the inactive-entity GC (1ms
// threshold, so reaping runs continually within the benchmark). A k-SCL
// (zero slice) keeps successive entities from serializing on slice
// expiry; every release is a boundary the lazy reaper can piggyback on.
// This is the goroutine-per-request pattern from examples/churn.
func BenchmarkMutexChurn(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: -1}, scl.WithInactiveGC(time.Millisecond))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := m.Register()
		h.Lock()
		h.Unlock()
	}
	b.StopTimer()
	if n := m.Entities(); n > 4096 {
		b.Fatalf("%d entities registered after churn, GC not keeping up", n)
	}
}

// BenchmarkMutexSlowRelease measures the slow-path release in isolation:
// a k-SCL (zero slice) disables the fast path, so every Unlock runs the
// full boundary — fold, accounting release, penalty decision — under the
// internal mutex. This is the path the PR 2 review scaffolding (a 50×
// Gosched loop inside Unlock) serialized; the benchmark pins its cost.
func BenchmarkMutexSlowRelease(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: -1})
	h := m.Register()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lock()
		h.Unlock()
	}
}

// BenchmarkMutexPingPong measures cross-entity ownership transfer on a
// k-SCL (zero slice: every release is a slice boundary), the slow path the
// fast path must not regress.
func BenchmarkMutexPingPong(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: -1})
	h1 := m.Register()
	h2 := m.Register()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Lock()
		h1.Unlock()
		h2.Lock()
		h2.Unlock()
	}
}

// BenchmarkMutexHandoff measures lock cost the way lightweight-thread
// lock studies do: the time from one holder's release until the next
// holder runs. Two goroutines, each its own k-SCL entity (every release
// is a slice boundary), loop on Lock/Unlock, so a release usually finds
// the other entity queued and grants it the lock; the handoff-ns metric
// averages the release-to-acquire gap over those grants. An acquire that
// follows the same entity's own release is not a handoff and is not
// counted. Every counted operation is a park/wake, so the number is
// scheduler-bound.
func BenchmarkMutexHandoff(b *testing.B) {
	m := scl.NewMutex(scl.Options{Slice: -1})
	base := time.Now()
	// Guarded by m itself: only the holder reads or writes them.
	var (
		last     = -1          // entity index of the previous holder
		relAt    time.Duration // when it began its release
		handoffs int64
		gaps     time.Duration
	)
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		h := m.Register()
		n := b.N / 2
		if g == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				h.Lock()
				if now := time.Since(base); last >= 0 && last != me {
					gaps += now - relAt
					handoffs++
				}
				last = me
				relAt = time.Since(base)
				h.Unlock()
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	if handoffs > 0 {
		b.ReportMetric(float64(gaps)/float64(handoffs), "handoff-ns")
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}

// benchContended hammers one lock from n goroutines, each a distinct
// entity, measuring aggregate critical-section throughput under contention.
func benchContended(b *testing.B, n int, mk func() sync.Locker) {
	b.ReportAllocs()
	b.SetParallelism(1)
	var shared int64
	lockers := make([]sync.Locker, n)
	for i := range lockers {
		lockers[i] = mk()
	}
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		lk := lockers[int(idx.Add(1)-1)%n]
		for pb.Next() {
			lk.Lock()
			shared++
			lk.Unlock()
		}
	})
	_ = shared
}

func benchMutexContended(b *testing.B, n int) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	m := scl.NewMutex(scl.Options{Slice: 100 * time.Microsecond})
	benchContended(b, n, func() sync.Locker { return m.Register() })
}

func benchSyncContended(b *testing.B, n int) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	var m sync.Mutex
	benchContended(b, n, func() sync.Locker { return &m })
}

func BenchmarkMutexContended2(b *testing.B)      { benchMutexContended(b, 2) }
func BenchmarkMutexContended8(b *testing.B)      { benchMutexContended(b, 8) }
func BenchmarkMutexContended32(b *testing.B)     { benchMutexContended(b, 32) }
func BenchmarkSyncMutexContended2(b *testing.B)  { benchSyncContended(b, 2) }
func BenchmarkSyncMutexContended8(b *testing.B)  { benchSyncContended(b, 8) }
func BenchmarkSyncMutexContended32(b *testing.B) { benchSyncContended(b, 32) }

// benchMutexContendedDo is benchMutexContended through the combining
// API: n goroutines, each a distinct entity, run the same tiny section
// via Handle.Do, so contended calls publish into the combining stack
// and the releasing holder executes them in batches. The comparison
// against BenchmarkSyncMutexContended{8,32} is the headline combining
// number: batching amortizes the ownership handoff that dominates the
// classic contended ladder.
func benchMutexContendedDo(b *testing.B, n int) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	m := scl.NewMutex(scl.Options{Slice: 100 * time.Microsecond})
	b.ReportAllocs()
	b.SetParallelism(1)
	var shared int64
	handles := make([]*scl.Handle, n)
	for i := range handles {
		handles[i] = m.Register()
	}
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := handles[int(idx.Add(1)-1)%n]
		section := func() { shared++ }
		for pb.Next() {
			h.Do(section)
		}
	})
	_ = shared
}

func BenchmarkMutexContendedDo2(b *testing.B)  { benchMutexContendedDo(b, 2) }
func BenchmarkMutexContendedDo8(b *testing.B)  { benchMutexContendedDo(b, 8) }
func BenchmarkMutexContendedDo32(b *testing.B) { benchMutexContendedDo(b, 32) }

// BenchmarkMutexDoMixed interleaves combining and classic users on one
// lock: half the goroutines run their sections through Handle.Do, half
// through Lock/Unlock. This is the realistic adoption shape (a hot
// path converted to Do while the rest of the codebase still takes the
// lock), and it keeps the drain/queue interaction — combined batches
// executing between a classic release and the next classic grant —
// honest under the same gate as the pure ladders.
func BenchmarkMutexDoMixed(b *testing.B) {
	const n = 8
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	m := scl.NewMutex(scl.Options{Slice: 100 * time.Microsecond})
	b.ReportAllocs()
	b.SetParallelism(1)
	var shared int64
	handles := make([]*scl.Handle, n)
	for i := range handles {
		handles[i] = m.Register()
	}
	var idx atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		me := int(idx.Add(1) - 1)
		h := handles[me%n]
		if me%2 == 0 {
			section := func() { shared++ }
			for pb.Next() {
				h.Do(section)
			}
			return
		}
		for pb.Next() {
			h.Lock()
			shared++
			h.Unlock()
		}
	})
	_ = shared
}

// BenchmarkRWLockReaderReacquire measures the RW-SCL read-phase fast path:
// repeated shared acquisitions inside one read slice.
func BenchmarkRWLockReaderReacquire(b *testing.B) {
	l := scl.NewRWLock(1, 1, time.Hour)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RLock()
		l.RUnlock()
	}
}

// BenchmarkRWMutexReaderReacquire is the sync.RWMutex reference.
func BenchmarkRWMutexReaderReacquire(b *testing.B) {
	var l sync.RWMutex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RLock()
		l.RUnlock()
	}
}

// benchRWReadScale measures the shared fast path with n concurrent
// reader goroutines inside one long read slice — the fan-in the
// distributed read indicator exists for. Near-flat ns/op as n grows is
// the target; a centralized reader count collapses here instead. The
// iteration budget is claimed in chunks so the harness's own counter
// does not become the centralized hot word the lock no longer has.
func benchRWReadScale(b *testing.B, readers int) {
	l := scl.NewRWLock(1, 1, time.Hour)
	b.ReportAllocs()
	const chunk = 512
	var next atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				base := next.Add(chunk) - chunk
				if base >= int64(b.N) {
					return
				}
				end := base + chunk
				if end > int64(b.N) {
					end = int64(b.N)
				}
				for i := base; i < end; i++ {
					l.RLock()
					l.RUnlock()
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkRWReadScale runs the reader-scaling ladder recorded in
// BENCH_scl.json; cmd/benchjson -compare gates regressions at every
// rung, so a reader-side scalability collapse fails `make bench`.
func BenchmarkRWReadScale(b *testing.B) {
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { benchRWReadScale(b, n) })
	}
}

// BenchmarkRWHandoff measures the RW-SCL's queued path: one reader and
// one writer goroutine loop on their acquires under a 2ns period, so a
// class's slice has always expired by its release, and a release that
// finds the other class queued hands the lock over. Such an acquire
// parks, is granted by the other class's release, and wakes. Each side
// yields after its release so the other class can queue first: at
// -cpu 1 nearly every acquire is handed over; with more Ps an acquire
// often beats the other class back to the lock and repeats its own
// class instead. handoffs/op is the share of handed-over acquires, and
// handoff-ns averages their release-to-acquire gap, as in
// BenchmarkMutexHandoff. The number is scheduler-bound.
func BenchmarkRWHandoff(b *testing.B) {
	l := scl.NewRWLock(1, 1, 2*time.Nanosecond)
	base := time.Now()
	// Guarded by l itself: the single reader and the writer exclude each
	// other, so only the current holder reads or writes them.
	var (
		last     = -1          // class of the previous holder (0 reader, 1 writer)
		relAt    time.Duration // when it began its release
		handoffs int64
		gaps     time.Duration
	)
	lock := [2]func(){l.RLock, l.WLock}
	unlock := [2]func(){l.RUnlock, l.WUnlock}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for c := 0; c < 2; c++ {
		n := b.N / 2
		if c == 0 {
			n = b.N - n
		}
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				lock[me]()
				if now := time.Since(base); last >= 0 && last != me {
					gaps += now - relAt
					handoffs++
				}
				last = me
				relAt = time.Since(base)
				unlock[me]()
				runtime.Gosched() // let the other class queue first
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	if handoffs > 0 {
		b.ReportMetric(float64(gaps)/float64(handoffs), "handoff-ns")
	}
	b.ReportMetric(float64(handoffs)/float64(b.N), "handoffs/op")
}

// BenchmarkManagerHotKey measures the lock-table overhead on the
// single-key fast path: one tenant re-acquiring one hot key, so every
// iteration pays stripe lookup (FNV-1a + stripe mutex), handle-pool
// checkout, the key lock's own fast path, and the ChargeWindow booking
// at release. The gap to BenchmarkMutexFastPath is the price of the
// table.
func BenchmarkManagerHotKey(b *testing.B) {
	m := scl.NewManager(scl.ManagerOptions{Lock: scl.Options{Slice: time.Hour}})
	tn := m.Tenant("bench", 1)
	defer tn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := tn.Lock("hot")
		g.Unlock()
	}
}

// BenchmarkManagerKeyChurn measures lazy materialization and lock reap
// under key churn: every iteration acquires a fresh key (k-SCL per-key
// locks, aggressive lock GC), so the table continually materializes,
// grants, and reaps. The final Keys() check asserts the reaper kept
// the table bounded at benchmark rates — the millions-of-keys story in
// miniature.
func BenchmarkManagerKeyChurn(b *testing.B) {
	m := scl.NewManager(scl.ManagerOptions{
		Lock: scl.Options{Slice: -1},
	}, scl.WithLockGC(time.Millisecond), scl.WithTenantGC(10*time.Millisecond))
	tn := m.Tenant("bench", 1)
	defer tn.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := tn.Lock("key-" + strconv.Itoa(i))
		g.Unlock()
	}
	b.StopTimer()
	if n := m.Keys(); n > 65536 {
		b.Fatalf("%d keys still materialized after churn, lock GC not keeping up", n)
	}
}
