// Command scltrace runs a small contended scenario on the simulator with
// lock-event tracing enabled and dumps the resulting timeline: every
// acquisition, release (with hold length), slice transfer and ban. Useful
// for seeing the SCL mechanism operate — slices of cheap re-acquisition,
// a transfer at each slice boundary, and bans following over-use.
//
// Usage:
//
//	scltrace [-lock uscl|kscl|mutex|spin|ticket] [-threads 3]
//	         [-cs 500µs] [-horizon 50ms] [-tail 40] [-seed 1] [-json]
//
// The simulator records trace.Events directly (task name in Name, the
// -lock kind in Lock), so the text log is trace.Format's and -json
// writes the full trace as JSON lines — the dump format cmd/scltop
// replays:
//
//	scltrace -json > dump.jsonl && scltop -replay dump.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"scl/internal/workload"
	"scl/sim"
	"scl/trace"
)

// lockKinds are the -lock values, the sim locks workload.MakeLock builds.
var lockKinds = []string{"uscl", "kscl", "mutex", "spin", "ticket"}

func main() {
	var (
		lockKind = flag.String("lock", "uscl", "lock under trace: "+strings.Join(lockKinds, ", "))
		threads  = flag.Int("threads", 3, "contending threads")
		cs       = flag.Duration("cs", 500*time.Microsecond, "critical section length of thread 0; thread i runs (i+1)x this")
		horizon  = flag.Duration("horizon", 50*time.Millisecond, "virtual run length")
		tail     = flag.Int("tail", 40, "events to print (newest)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		jsonOut  = flag.Bool("json", false, "dump the full trace as trace.Event JSON lines (for scltop -replay)")
	)
	flag.Parse()
	if err := validate(*lockKind, *threads, *cs, *horizon, *tail); err != nil {
		fmt.Fprintln(os.Stderr, "scltrace:", err)
		flag.Usage()
		os.Exit(2)
	}

	cpus := *threads
	if cpus > 8 {
		cpus = 8
	}
	e := sim.New(sim.Config{CPUs: cpus, Horizon: *horizon, Seed: *seed})
	e.EnableTrace(1 << 16)
	lk := workload.MakeLock(e, *lockKind, 0)
	specs := make([]workload.Loop, *threads)
	for i := range specs {
		specs[i] = workload.Loop{
			CS:   time.Duration(i+1) * *cs,
			CPU:  i % cpus,
			Name: fmt.Sprintf("t%d", i),
		}
	}
	counters := workload.SpawnLoops(e, lk, specs)
	e.Run()

	evs := e.TraceEvents()
	for i := range evs {
		evs[i].Lock = *lockKind
	}
	if *jsonOut {
		if err := trace.WriteJSONL(os.Stdout, evs); err != nil {
			fmt.Fprintln(os.Stderr, "scltrace:", err)
			os.Exit(1)
		}
		return
	}

	total := len(evs)
	if len(evs) > *tail {
		fmt.Printf("... %d earlier events elided ...\n", len(evs)-*tail)
		evs = evs[len(evs)-*tail:]
	}
	fmt.Print(trace.Format(evs))

	s := lk.Stats()
	fmt.Printf("\n%d events total; per-thread holds over %v:\n", total, *horizon)
	for i := 0; i < *threads; i++ {
		fmt.Printf("  t%d: %8d ops, held %v\n", i, counters.Ops[i], s.Hold(i).Round(time.Microsecond))
	}
}

// validate rejects flag values the simulated run cannot take: an
// unknown lock, no threads, a non-positive critical section or horizon,
// or a negative tail.
func validate(lock string, threads int, cs, horizon time.Duration, tail int) error {
	switch {
	case !slices.Contains(lockKinds, lock):
		return fmt.Errorf("unknown -lock %q (want one of %s)", lock, strings.Join(lockKinds, ", "))
	case threads < 1:
		return errors.New("-threads must be at least 1")
	case cs <= 0:
		return errors.New("-cs must be positive")
	case horizon <= 0:
		return errors.New("-horizon must be positive")
	case tail < 0:
		return errors.New("-tail must not be negative")
	}
	return nil
}
