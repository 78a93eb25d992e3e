// Package kyoto implements a KyotoCabinet-analogue: an in-memory
// hash-based database guarded by a single reader-writer lock, the locking
// structure behind the paper's Figures 11 and 12. With a
// reader-preference rwlock a steady reader population starves writers
// (fewer than ten writes in an entire run); RW-SCL's class slices give
// writers their configured share back.
package kyoto

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"scl"
	"scl/internal/apps/replay"
	"scl/internal/hashtable"
	"scl/sim"
)

// valueSize matches KyotoCabinet-scale records; together with the
// checksum passes below it calibrates critical sections to the
// microseconds a loaded CacheDB operation costs (record copy, visitor
// dispatch, LRU bookkeeping), so the lock is held for realistic spans.
const (
	valueSize   = 512
	readPasses  = 12
	writePasses = 24
)

// DB is the shared hash database. Not goroutine-safe; callers hold the
// reader-writer lock under study.
type DB struct {
	table *hashtable.Table
	keys  int
	sum   atomic.Uint32 // checksum sink, keeps the record work alive
}

// NewDB creates a database preloaded with n entries (the paper uses ten
// million; the harness defaults scale this down — see DESIGN.md).
func NewDB(n int) *DB {
	db := &DB{table: hashtable.New(n * 2), keys: n}
	var val [valueSize]byte
	for i := 0; i < n; i++ {
		db.table.Put(key(i), val[:])
	}
	return db
}

func key(i int) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return string(b[:])
}

// Read performs one random lookup and validates the record (the per-op
// record processing a real CacheDB read does under the lock).
func (db *DB) Read(rng *rand.Rand) bool {
	v, ok := db.table.Get(key(rng.Intn(db.keys)))
	if ok {
		var sum uint32
		for p := 0; p < readPasses; p++ {
			sum = crc32.Update(sum, crc32.IEEETable, v)
		}
		// Atomic: concurrent readers share the sink under RLock.
		db.sum.Store(sum)
	}
	return ok
}

// Write performs one random overwrite, including record generation and
// checksumming under the lock.
func (db *DB) Write(rng *rand.Rand) {
	var val [valueSize]byte
	rng.Read(val[:])
	var sum uint32
	for p := 0; p < writePasses; p++ {
		sum = crc32.Update(sum, crc32.IEEETable, val[:])
	}
	db.sum.Store(sum)
	db.table.Put(key(rng.Intn(db.keys)), val[:])
}

// SimConfig configures the simulator twin of the KyotoCabinet experiment.
type SimConfig struct {
	Lock        string // "rwmutex" (reader preference) or "rwscl"
	Readers     int
	Writers     int
	CPUs        int
	Horizon     time.Duration
	Entries     int
	ReadWeight  int64
	WriteWeight int64
	Period      time.Duration
	Seed        int64
	// WriterNCS is the writers' per-iteration non-critical work (request
	// parsing, response marshalling). With one writer and a substantial
	// NCS the write slice goes partly unused; a second writer fills it
	// (paper Figure 12b).
	WriterNCS time.Duration
}

// SimResult is the outcome of one simulated run.
type SimResult struct {
	ReaderOps, WriterOps   int64
	ReaderHold, WriterHold time.Duration
	ReaderTput, WriterTput float64
	PerTaskHold            []time.Duration
	Horizon                time.Duration
}

// readNominal is the median read on the reference host, the one behind
// results_full.txt (its Table 1 "KyotoCabinet Read" p50). RunSim's replay
// clock charges a read of median length this much on any host: overlapping
// reads are what starve the writer, so their length sets Figure 11's
// operating point.
const readNominal = 590 * time.Nanosecond

// RunSim executes the simulated KyotoCabinet workload: Readers + Writers
// workers pinned round-robin, real hash-table operations with measured
// costs charged to simulated CPUs at the reference host's speed (a
// replay.Clock calibrated on reads).
func RunSim(cfg SimConfig) SimResult {
	if cfg.CPUs == 0 {
		cfg.CPUs = 8
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = time.Second
	}
	if cfg.Entries == 0 {
		cfg.Entries = 100_000
	}
	if cfg.ReadWeight == 0 {
		cfg.ReadWeight = 9
	}
	if cfg.WriteWeight == 0 {
		cfg.WriteWeight = 1
	}
	runtime.GC() // measured-cost runs: don't carry GC debt across configs
	e := sim.New(sim.Config{CPUs: cfg.CPUs, Horizon: cfg.Horizon, Seed: cfg.Seed})
	var lk sim.RWLocker
	switch cfg.Lock {
	case "", "rwmutex":
		lk = sim.NewRWMutex(e)
	case "rwscl":
		lk = sim.NewRWSCL(e, cfg.Period, cfg.ReadWeight, cfg.WriteWeight)
	default:
		panic("kyoto: unknown lock " + cfg.Lock)
	}
	db := NewDB(cfg.Entries)
	calRng := rand.New(rand.NewSource(cfg.Seed))
	clock := replay.Calibrate(readNominal, 1000, func() { db.Read(calRng) })
	total := cfg.Readers + cfg.Writers
	ops := make([]int64, total)
	for i := 0; i < total; i++ {
		i := i
		writer := i >= cfg.Readers
		name := fmt.Sprintf("reader-%d", i)
		if writer {
			name = fmt.Sprintf("writer-%d", i)
		}
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
		e.Spawn(name, sim.TaskConfig{CPU: i % cfg.CPUs}, func(t *sim.Task) {
			for t.Now() < cfg.Horizon {
				start := time.Now()
				if writer {
					lk.WLock(t)
					start = time.Now()
					db.Write(rng)
					t.Compute(clock.Since(start))
					lk.WUnlock(t)
					t.Compute(cfg.WriterNCS)
				} else {
					lk.RLock(t)
					start = time.Now()
					db.Read(rng)
					t.Compute(clock.Since(start))
					lk.RUnlock(t)
				}
				t.Compute(200 * time.Nanosecond)
				ops[i]++
			}
		})
	}
	e.Run()

	res := SimResult{Horizon: cfg.Horizon}
	s := lk.Stats()
	for i := 0; i < total; i++ {
		res.PerTaskHold = append(res.PerTaskHold, s.Hold(i))
		if i >= cfg.Readers {
			res.WriterOps += ops[i]
			res.WriterHold += s.Hold(i)
		} else {
			res.ReaderOps += ops[i]
			res.ReaderHold += s.Hold(i)
		}
	}
	secs := cfg.Horizon.Seconds()
	res.ReaderTput = float64(res.ReaderOps) / secs
	res.WriterTput = float64(res.WriterOps) / secs
	return res
}

// RealConfig configures a real-goroutine KyotoCabinet run.
type RealConfig struct {
	Lock        string // "rwscl" only (Go's sync.RWMutex is writer-preference, not the paper's baseline)
	Readers     int
	Writers     int
	Duration    time.Duration
	Entries     int
	ReadWeight  int64
	WriteWeight int64
	Period      time.Duration
	Seed        int64
}

// RealResult is the outcome of a real-goroutine run.
type RealResult struct {
	Stats                  scl.RWStats
	ReaderTput, WriterTput float64
}

// RunReal executes the workload on real goroutines with the real RW-SCL.
func RunReal(cfg RealConfig) RealResult {
	if cfg.Duration == 0 {
		cfg.Duration = time.Second
	}
	if cfg.Entries == 0 {
		cfg.Entries = 100_000
	}
	if cfg.ReadWeight == 0 {
		cfg.ReadWeight = 9
	}
	if cfg.WriteWeight == 0 {
		cfg.WriteWeight = 1
	}
	// The RW-SCL provides the needed exclusion: concurrent readers only
	// ever read the table; writers hold it exclusively.
	db := NewDB(cfg.Entries)
	lk := scl.NewRWLock(cfg.ReadWeight, cfg.WriteWeight, cfg.Period)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Readers; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lk.RLock()
				db.Read(rng)
				lk.RUnlock()
			}
		}()
	}
	for i := 0; i < cfg.Writers; i++ {
		rng := rand.New(rand.NewSource(cfg.Seed*2000 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lk.WLock()
				db.Write(rng)
				lk.WUnlock()
			}
		}()
	}
	wg.Wait()
	st := lk.Stats()
	secs := cfg.Duration.Seconds()
	return RealResult{
		Stats:      st,
		ReaderTput: float64(st.ReaderOps) / secs,
		WriterTput: float64(st.WriterOps) / secs,
	}
}
