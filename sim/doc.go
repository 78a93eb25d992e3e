// Package sim is a deterministic discrete-event simulator of CPUs, a
// proportional-share (CFS-like) scheduler, and locks. It is the substrate
// on which this repository reproduces the evaluation of "Avoiding Scheduler
// Subversion using Scheduler-Cooperative Locks" (EuroSys 2020): simulated
// threads are ordinary Go functions, time is virtual nanoseconds, and every
// run with the same seed produces identical results.
//
// Concurrency model: each simulated thread (Task) runs on its own goroutine,
// but exactly one goroutine — the engine or a single task — executes at any
// moment. Control is handed back and forth over unbuffered channels, so all
// engine and lock state is accessed without data races and the simulation is
// fully sequential and deterministic.
//
// # Paper-to-code map
//
// The simulated locks mirror the paper's lock taxonomy (§2, §4, §5):
//
//   - uscl.go — the u-SCL, driven by the same core.Accountant as the real
//     scl.Mutex (usage accounting, slices, penalties of §4).
//   - rwscl.go — the RW-SCL with weighted, alternating class slices (§5),
//     driven by core.RWController.
//   - mutex.go, spinlock.go, lock.go — the baselines: barging mutex,
//     spinlock (with randomized barging arbitration), ticket lock.
//   - sched.go — the CFS-like proportional-share scheduler the locks
//     subvert (or cooperate with); a ULE-like variant is exercised by
//     ule_test.go.
//   - cost.go — the micro-architectural cost model (acquisition cost,
//     context-switch cost, wakeup latency).
//   - trace.go — the lock-event trace (EnableTrace, TraceEvents),
//     recorded as scl/trace Events, so cmd/scltrace -json dumps and
//     cmd/scltop replays simulated and real runs identically.
//
// Every table and figure of the paper's evaluation is regenerated on this
// engine by internal/experiments, via cmd/sclbench. Use the simulator when
// you need the paper's full CPU-allocation claims (goroutines cannot be
// pinned to CPUs); use the real locks in package scl when you need actual
// mutual exclusion in a running program.
package sim
