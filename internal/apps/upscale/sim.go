package upscale

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"scl/internal/apps/replay"
	"scl/sim"
)

// SimConfig configures the simulator twin of the UpScaleDB experiment
// (paper Figures 1 and 10): FindThreads + InsertThreads workers pinned
// round-robin over CPUs, all contending on the global environment lock.
type SimConfig struct {
	Lock          string // "mutex" (pthread-style) or "uscl"
	FindThreads   int
	InsertThreads int
	CPUs          int
	Horizon       time.Duration
	Preload       int
	Slice         time.Duration // u-SCL slice (0 = default 2ms)
	Seed          int64
}

// ThreadResult summarizes one worker.
type ThreadResult struct {
	Name    string
	Kind    string // "find" or "insert"
	Ops     int64
	CPUTime time.Duration // simulated CPU seconds allocated to the thread
	CPUHold time.Duration // CPU while holding the lock
	Hold    time.Duration // lock hold (wall) time
}

// SimResult is the outcome of one simulated run.
type SimResult struct {
	Threads    []ThreadResult
	FindOps    int64
	InsertOps  int64
	JainHold   float64
	LockUtil   float64 // fraction of the run the lock was held
	Horizon    time.Duration
	CPUUtil    float64
	FindTput   float64 // ops/sec
	InsertTput float64
}

// insertNominal is the median insert on the reference host, the one behind
// results_full.txt (its Table 1 "UpScaleDB Insert" p50, timed on a store
// grown from empty). RunSim's replay clock charges an insert of median
// length this much on any host.
const insertNominal = 3860 * time.Nanosecond

// RunSim executes the simulated UpScaleDB workload. Each simulated thread
// executes real B+-tree/journal operations on the shared store, measures
// their actual duration, and charges that to the simulated CPU through a
// replay.Clock calibrated on inserts — so critical-section lengths have
// the store's authentic distribution at the reference host's speed while
// scheduling and locking are fully simulated.
func RunSim(cfg SimConfig) SimResult {
	if cfg.CPUs == 0 {
		cfg.CPUs = 4
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 2 * time.Second
	}
	runtime.GC() // measured-cost runs: don't carry GC debt across configs
	e := sim.New(sim.Config{CPUs: cfg.CPUs, Horizon: cfg.Horizon, Seed: cfg.Seed})
	var lk sim.Locker
	switch cfg.Lock {
	case "", "mutex":
		lk = sim.NewMutex(e)
	case "uscl":
		lk = sim.NewUSCL(e, cfg.Slice)
	default:
		panic("upscale: unknown lock " + cfg.Lock)
	}
	cal := NewStore(0)
	calRng := rand.New(rand.NewSource(cfg.Seed))
	clock := replay.Calibrate(insertNominal, 1000, func() { cal.Insert(calRng) })
	store := NewStore(cfg.Preload)
	total := cfg.FindThreads + cfg.InsertThreads
	ops := make([]int64, total)
	kinds := make([]string, total)
	for i := 0; i < total; i++ {
		i := i
		insert := i >= cfg.FindThreads
		kind := "find"
		if insert {
			kind = "insert"
		}
		kinds[i] = kind
		name := fmt.Sprintf("%s-%d", kind, i)
		rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(i)))
		e.Spawn(name, sim.TaskConfig{CPU: i % cfg.CPUs}, func(t *sim.Task) {
			for t.Now() < cfg.Horizon {
				lk.Lock(t)
				start := time.Now()
				if insert {
					store.Insert(rng)
				} else {
					store.Find(rng)
				}
				t.Compute(clock.Since(start))
				lk.Unlock(t)
				// Client-side work between operations (key generation,
				// result handling).
				t.Compute(200 * time.Nanosecond)
				ops[i]++
			}
		})
	}
	e.Run()

	res := SimResult{Horizon: cfg.Horizon, CPUUtil: e.Utilization()}
	s := lk.Stats()
	ids := make([]int, total)
	for i := 0; i < total; i++ {
		ids[i] = i
		task := e.TaskByID(i)
		tr := ThreadResult{
			Name:    task.Name(),
			Kind:    kinds[i],
			Ops:     ops[i],
			CPUTime: task.CPUTime(),
			CPUHold: task.CPUHoldTime(),
			Hold:    s.Hold(i),
		}
		res.Threads = append(res.Threads, tr)
		if kinds[i] == "find" {
			res.FindOps += ops[i]
		} else {
			res.InsertOps += ops[i]
		}
	}
	res.JainHold = s.JainHold(ids...)
	res.LockUtil = float64(s.TotalHold()) / float64(cfg.Horizon)
	secs := cfg.Horizon.Seconds()
	res.FindTput = float64(res.FindOps) / secs
	res.InsertTput = float64(res.InsertOps) / secs
	return res
}
