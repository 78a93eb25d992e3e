package check

import "fmt"

// Workload is one explorable scenario: Setup registers the scenario's
// goroutines on a fresh scheduler (building a fresh lock each run), and
// Validate, if non-nil, runs after the schedule completes — still under
// the installed scheduler, so the lock's virtual clock is live — and
// returns an error to fail the run (end-state assertions: final stats,
// imbalance bounds).
type Workload struct {
	Name     string
	Setup    func(s *Sched)
	Validate func() error
}

// Opts configures randomized exploration.
type Opts struct {
	// Schedules is the number of runs to attempt.
	Schedules int
	// Seed is the base seed; each run derives its own seed from it, and
	// any failure reports the per-run seed for one-shot replay.
	Seed int64
	// Mode selects the chooser: "pct" (default) or "random".
	Mode string
	// Depth is the PCT change-point budget d (default 3).
	Depth int
	// Horizon is the PCT change-point spread (default 512 choice steps).
	Horizon int
	// MaxSteps bounds each run (default 100000).
	MaxSteps int
}

// Summary reports an exploration: runs executed, distinct schedule
// signatures seen, total steps, and the first failure (nil if all runs
// passed). Exploration stops at the first failure.
type Summary struct {
	Runs     int
	Distinct int
	Steps    int64
	Failure  *Failure
}

// Explore runs w under Opts.Schedules randomized schedules. It
// installs/uninstalls the process-global scheduler around every run, so
// callers (tests) must not run concurrently with other users of this
// package.
func Explore(o Opts, w Workload) Summary {
	applyDefaults(&o)
	sigs := make(map[uint64]struct{}, o.Schedules)
	var sum Summary
	for i := 0; i < o.Schedules; i++ {
		seed := RunSeed(o.Seed, i)
		res := runOne(o, w, seed)
		sum.Runs++
		sum.Steps += int64(res.Steps)
		sigs[res.Sig] = struct{}{}
		if res.Failure != nil {
			res.Failure.Seed = seed
			sum.Failure = res.Failure
			break
		}
	}
	sum.Distinct = len(sigs)
	return sum
}

// Replay runs w once under the exact schedule derived from seed (as
// printed in a Failure) and returns the failure it reproduces, or nil.
func Replay(o Opts, w Workload, seed int64) *Failure {
	applyDefaults(&o)
	res := runOne(o, w, seed)
	if res.Failure != nil {
		res.Failure.Seed = seed
	}
	return res.Failure
}

func applyDefaults(o *Opts) {
	if o.Depth <= 0 {
		o.Depth = 3
	}
	if o.Mode == "" {
		o.Mode = "pct"
	}
}

// RunSeed derives the i-th run's seed from a base seed (splitmix64),
// so one base seed names a whole exploration and any single run is
// reproducible from its derived seed alone.
func RunSeed(base int64, i int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func runOne(o Opts, w Workload, seed int64) Result {
	var ch Chooser
	switch o.Mode {
	case "random":
		ch = NewRandomChooser(seed)
	case "pct":
		ch = NewPCTChooser(seed, o.Depth, o.Horizon)
	default:
		panic(fmt.Sprintf("check: unknown exploration mode %q", o.Mode))
	}
	return RunWith(ch, o.MaxSteps, w)
}

// RunWith executes one schedule of w under ch with the scheduler
// installed for the duration (including Validate, which needs the
// virtual clock). maxSteps <= 0 selects NewSched's default. A
// FirstChooser makes it the single forced-schedule run of a workload.
func RunWith(ch Chooser, maxSteps int, w Workload) Result {
	s := NewSched(ch, maxSteps)
	Install(s)
	defer Uninstall(s)
	w.Setup(s)
	res := s.Run()
	if res.Failure == nil && w.Validate != nil {
		if err := w.Validate(); err != nil {
			res.Failure = &Failure{
				G:     "validate",
				Err:   err,
				Trace: append([]Step(nil), s.trace...),
			}
		}
	}
	return res
}

// DFSOpts configures bounded exhaustive exploration.
type DFSOpts struct {
	// Depth bounds the branching decisions enumerated exhaustively;
	// choices beyond it follow the first enabled goroutine.
	Depth int
	// MaxRuns caps the enumeration (<= 0: unlimited within Depth).
	MaxRuns int
	// MaxSteps bounds each run (default 100000).
	MaxSteps int
}

// ExploreDFS enumerates w's schedules exhaustively up to o.Depth
// branching decisions. Failures report Seed = -(run index) - 1; replay
// them with ReplayDFS using the same Depth.
func ExploreDFS(o DFSOpts, w Workload) Summary {
	if o.Depth <= 0 {
		o.Depth = 6
	}
	ch := newDFSChooser(o.Depth)
	sigs := make(map[uint64]struct{})
	var sum Summary
	for run := 0; ; run++ {
		if o.MaxRuns > 0 && run >= o.MaxRuns {
			break
		}
		res := RunWith(ch, o.MaxSteps, w)
		sum.Runs++
		sum.Steps += int64(res.Steps)
		sigs[res.Sig] = struct{}{}
		if res.Failure != nil {
			res.Failure.Seed = int64(-run - 1)
			sum.Failure = res.Failure
			break
		}
		if !ch.advance() {
			break
		}
	}
	sum.Distinct = len(sigs)
	return sum
}

// ReplayDFS re-runs the run-index'th DFS schedule (from a Failure seed
// of -(index)-1) under the same Depth and returns the reproduced
// failure, or nil.
func ReplayDFS(o DFSOpts, w Workload, seed int64) *Failure {
	if seed >= 0 {
		return nil
	}
	target := int(-seed - 1)
	if o.Depth <= 0 {
		o.Depth = 6
	}
	ch := newDFSChooser(o.Depth)
	for run := 0; run <= target; run++ {
		res := RunWith(ch, o.MaxSteps, w)
		if run == target {
			if res.Failure != nil {
				res.Failure.Seed = seed
			}
			return res.Failure
		}
		if !ch.advance() {
			return nil
		}
	}
	return nil
}
