// Command sclcheck runs the deterministic concurrency checker
// (internal/check) against the real scl locks from the command line —
// the offline, long-budget counterpart to `go test ./internal/check`.
//
// Modes:
//
//	sclcheck -mode explore -workload mutex-churn -schedules 100000 -seed 1
//	    randomized exploration (PCT or uniform) of a workload; prints a
//	    summary, and on failure the seed that reproduces it.
//	sclcheck -mode replay -workload mutex-churn -seed 123456789
//	    one deterministic run of a previously printed schedule seed.
//	sclcheck -mode dfs -workload mutex-contend -depth 8
//	    bounded exhaustive enumeration of a small scenario.
//
// The sim-vs-real differential oracle runs over the scenario corpus:
// `sclscenario -mode oracle`.
//
// Exit status is non-zero when a failure is found.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scl/internal/check"
	"scl/internal/check/workloads"
)

func main() {
	var (
		mode      = flag.String("mode", "explore", "explore, replay, or dfs")
		workload  = flag.String("workload", "mutex-churn", strings.Join(workloads.Names(), ", "))
		schedules = flag.Int("schedules", 20000, "exploration budget (explore mode)")
		seed      = flag.Int64("seed", 1, "base seed (explore) or schedule seed (replay)")
		strategy  = flag.String("strategy", "pct", "schedule chooser for explore mode: pct or random")
		depth     = flag.Int("depth", 3, "PCT change points (explore) or branching depth (dfs)")
		maxRuns   = flag.Int("maxruns", 100000, "run cap for dfs mode")
	)
	flag.Parse()

	switch *mode {
	case "explore":
		w := pick(*workload)
		start := time.Now()
		sum := check.Explore(check.Opts{Schedules: *schedules, Seed: *seed, Mode: *strategy, Depth: *depth}, w)
		report(sum, time.Since(start))
	case "replay":
		w := pick(*workload)
		if f := check.Replay(check.Opts{}, w, *seed); f != nil {
			fmt.Printf("seed %d reproduces a failure:\n%v\n", *seed, f)
			os.Exit(1)
		}
		fmt.Printf("seed %d replayed clean against %s\n", *seed, *workload)
	case "dfs":
		w := pick(*workload)
		start := time.Now()
		sum := check.ExploreDFS(check.DFSOpts{Depth: *depth, MaxRuns: *maxRuns}, w)
		report(sum, time.Since(start))
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q\n", *mode)
		os.Exit(2)
	}
}

// pick maps a workload name to its default-configured instance.
func pick(name string) check.Workload {
	if w, ok := workloads.Named(name); ok {
		return w
	}
	fmt.Fprintf(os.Stderr, "unknown -workload %q\n", name)
	os.Exit(2)
	return check.Workload{}
}

// report prints an exploration summary and exits non-zero on failure.
func report(sum check.Summary, took time.Duration) {
	fmt.Printf("%d runs, %d distinct schedules, %d steps, %v\n", sum.Runs, sum.Distinct, sum.Steps, took.Round(time.Millisecond))
	if sum.Failure != nil {
		fmt.Printf("FAILURE (replay with -mode replay -seed %d):\n%v\n", sum.Failure.Seed, sum.Failure)
		os.Exit(1)
	}
}
