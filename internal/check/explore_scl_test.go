// Exploration tests running the real scl locks under the deterministic
// scheduler. They live in package check_test (not check) because they
// import scl, which imports check.
//
// Replaying a failure: every failure prints a seed; reproduce it
// one-shot with
//
//	go test ./internal/check -run TestExplore -check.seed=<seed> -check.workload=<name>
package check_test

import (
	"flag"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scl/internal/check"
	"scl/internal/check/workloads"
	"scl/internal/scenario"
)

var (
	seedFlag = flag.Int64("check.seed", 0,
		"replay this schedule seed against the selected workload instead of exploring")
	workloadFlag = flag.String("check.workload", "mutex-churn",
		"workload for -check.seed replay: "+strings.Join(workloads.Names(), ", ")+", or scenario")
	schedulesFlag = flag.Int("check.schedules", 0,
		"override the exploration budget (number of schedules)")
	scenarioFlag = flag.String("check.scenario", "",
		"scenario file for -check.workload=scenario (bare names resolve in ../scenario/testdata)")
)

// scenarioWorkload compiles a scenario file into an explorable
// workload (see scenario.Workload).
func scenarioWorkload(t *testing.T, path string) check.Workload {
	if filepath.Ext(path) == "" {
		path = filepath.Join("..", "scenario", "testdata", path+scenario.CorpusExt)
	}
	s, err := scenario.LoadFile(path)
	if err != nil {
		t.Fatalf("-check.scenario: %v", err)
	}
	c, err := scenario.Compile(s)
	if err != nil {
		t.Fatalf("-check.scenario: %v", err)
	}
	return scenario.Workload(c)
}

// namedWorkload returns the workload a -check.seed replay targets.
func namedWorkload(t *testing.T, name string) check.Workload {
	if name == "scenario" {
		if *scenarioFlag == "" {
			t.Fatalf("-check.workload=scenario needs -check.scenario=<file>")
		}
		return scenarioWorkload(t, *scenarioFlag)
	}
	w, ok := workloads.Named(name)
	if !ok {
		t.Fatalf("unknown -check.workload %q", name)
	}
	return w
}

// replayIfRequested handles -check.seed: a single deterministic run of
// the requested schedule. Returns true if it ran (the test is done).
func replayIfRequested(t *testing.T) bool {
	if *seedFlag == 0 {
		return false
	}
	w := namedWorkload(t, *workloadFlag)
	if f := check.Replay(check.Opts{}, w, *seedFlag); f != nil {
		t.Fatalf("replayed failure:\n%v", f)
	}
	t.Logf("seed %d replayed clean against %s", *seedFlag, *workloadFlag)
	return true
}

// TestExploreMutexChurn is the issue's acceptance workload: 3 entities
// running a lock/cancel/close mix. The full run explores enough
// randomized schedules to clear 10k distinct signatures; -short (CI
// race builds) keeps a smaller budget.
func TestExploreMutexChurn(t *testing.T) {
	if replayIfRequested(t) {
		return
	}
	w := workloads.MutexChurn(workloads.MutexOpts{Seed: 1, Cancel: true, CloseMid: true})
	n := 11000
	want := 10000
	if testing.Short() {
		n, want = 1200, 600
	}
	if *schedulesFlag > 0 {
		n, want = *schedulesFlag, 0
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 1, Mode: "random"}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules, %d total steps", sum.Runs, sum.Distinct, sum.Steps)
	if sum.Distinct < want {
		t.Fatalf("only %d distinct schedules in %d runs (want >= %d)", sum.Distinct, sum.Runs, want)
	}
}

// TestExploreMutexChurnPCT hunts bugs with PCT-style priority
// schedules, which concentrate probability on rare orderings (depth-3
// races) rather than maximizing schedule diversity.
func TestExploreMutexChurnPCT(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexChurn(workloads.MutexOpts{Seed: 2, Cancel: true, CloseMid: true, GC: true})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 2, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreMutexContend asserts the opportunity-imbalance bound on
// every explored schedule of an equal-weight contention workload.
func TestExploreMutexContend(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexContend(workloads.ContendOpts{Seed: 3})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 3, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreMutexCombine explores the combining protocol (Handle.Do)
// across 10k+ distinct schedules: Do publishers race plain acquires,
// release-time drains, ban rejections and the idle wake-walk through
// the mu.combine.* decision sites, with mutual exclusion, exactly-once
// execution, accounting conservation and a Do-latency bound asserted on
// every schedule.
func TestExploreMutexCombine(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexCombine(workloads.CombineOpts{Seed: 11})
	n := 11000
	want := 10000
	if testing.Short() {
		n, want = 1200, 600
	}
	if *schedulesFlag > 0 {
		n, want = *schedulesFlag, 0
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 11, Mode: "random"}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules, %d total steps", sum.Runs, sum.Distinct, sum.Steps)
	if sum.Distinct < want {
		t.Fatalf("only %d distinct schedules in %d runs (want >= %d)", sum.Distinct, sum.Runs, want)
	}
}

// TestExploreMutexCombinePCT hunts depth-3 races in the combining
// protocol (publish-vs-release, drain-vs-withdraw, handoff-vs-close)
// with PCT priority schedules.
func TestExploreMutexCombinePCT(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexCombine(workloads.CombineOpts{Seed: 12})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 12, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreMutexCombineDFS enumerates a minimal two-entity combining
// scenario exhaustively within a branching-depth bound.
func TestExploreMutexCombineDFS(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexCombine(workloads.CombineOpts{Entities: 2, Ops: 2, Seed: 13})
	max := 1500
	if testing.Short() {
		max = 300
	}
	sum := check.ExploreDFS(check.DFSOpts{Depth: 10, MaxRuns: max}, w)
	if sum.Failure != nil {
		t.Fatalf("DFS exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreRWChurn drives the RW-SCL through reader/writer churn with
// cancellations.
func TestExploreRWChurn(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.RWChurn(workloads.RWOpts{Seed: 4, Cancel: true})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 4, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreRWShardSweep hunts sweep-vs-incoming-reader races in the
// distributed read indicator with PCT schedules: the new decision points
// (rw.shard.rlock, rw.shard.runlock, rw.phaseflip.sweep) let the
// explorer interleave a write-phase shard sweep with fast readers
// mid-publish, and the workload asserts reader-op conservation plus a
// final write drain on every schedule.
func TestExploreRWShardSweep(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.RWShardSweep(workloads.RWShardOpts{Seed: 7})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 7, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreRWShardDFS enumerates a minimal two-reader/one-writer
// shard-sweep scenario exhaustively within a branching-depth bound, the
// small-bounds counterpart to the PCT hunt above.
func TestExploreRWShardDFS(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.RWShardSweep(workloads.RWShardOpts{Readers: 2, Writers: 1, Ops: 2, Seed: 8})
	max := 1500
	if testing.Short() {
		max = 300
	}
	sum := check.ExploreDFS(check.DFSOpts{Depth: 10, MaxRuns: max}, w)
	if sum.Failure != nil {
		t.Fatalf("DFS exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreRWWriters races the lone-writer fast path against the slow
// write acquire and release (two writers, no readers) in both explorer
// modes, with and without RWLock.Do on one side: an inline slow acquire
// must never land on top of a fast writer, and a writer that queues
// behind a fast release must still be granted.
func TestExploreRWWriters(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	n := 5000
	if testing.Short() {
		n = 500
	}
	for _, do := range []bool{false, true} {
		w := workloads.RWWriters(workloads.RWWritersOpts{Do: do})
		for _, mode := range []string{"random", "pct"} {
			t.Run(w.Name+"/"+mode, func(t *testing.T) {
				sum := check.Explore(check.Opts{Schedules: n, Seed: 14, Mode: mode, Depth: 3}, w)
				if sum.Failure != nil {
					t.Fatalf("exploration failed (replay with -check.workload=%s):\n%v", w.Name, sum.Failure)
				}
				t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
			})
		}
	}
}

// TestExploreMutexSiblings explores one entity locking through two sibling
// handles beside a foreign entity, in both explorer modes: the owner's
// release must serve a queued sibling within the slice, leave foreign
// waiters to the slice end, and keep the waiters bit exact throughout.
func TestExploreMutexSiblings(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	n := 5000
	if testing.Short() {
		n = 500
	}
	w, _ := workloads.Named("mutex-siblings")
	for _, mode := range []string{"random", "pct"} {
		t.Run(mode, func(t *testing.T) {
			sum := check.Explore(check.Opts{Schedules: n, Seed: 15, Mode: mode, Depth: 3}, w)
			if sum.Failure != nil {
				t.Fatalf("exploration failed (replay with -check.workload=%s):\n%v", w.Name, sum.Failure)
			}
			t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
		})
	}
}

// TestExploreManagerChurn drives the lock-table Manager through
// multi-key tenant churn with cancellation, mid-run tenant close and
// both GCs armed, exploring the table's decision sites (mgr.stripe,
// mgr.materialize, mgr.release, mgr.reap, mgr.close, acct.charge)
// interleaved with the per-key locks' own sites. Every schedule asserts
// per-key mutual exclusion, cross-layer in-flight agreement and clean
// teardown of every stripe's books.
func TestExploreManagerChurn(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.ManagerChurn(workloads.ManagerOpts{Slice: 2 * time.Millisecond, Seed: 9, Cancel: true, CloseMid: true, GC: true})
	n := 2000
	if testing.Short() {
		n = 400
	}
	sum := check.Explore(check.Opts{Schedules: n, Seed: 9, Mode: "pct", Depth: 3}, w)
	if sum.Failure != nil {
		t.Fatalf("exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestExploreKSCL explores the k-SCL workloads: zero-length slices, so
// no fast path and no slice timer, and every release, abandon and ghost
// drop must hand the lock on by itself. Besides each workload's own
// guarantees, CheckInvariants after every operation asserts that no
// queued waiter is left behind a free lock with no grant in flight.
// manager-kscl reaches the k-SCL keys through the Manager's default.
func TestExploreKSCL(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	n := 10000
	if testing.Short() {
		n = 2000
	}
	if *schedulesFlag > 0 {
		n = *schedulesFlag
	}
	for _, name := range []string{"kscl-churn", "kscl-contend", "kscl-siblings", "kscl-combine", "manager-kscl"} {
		w, _ := workloads.Named(name)
		t.Run(name, func(t *testing.T) {
			sum := check.Explore(check.Opts{Schedules: n, Seed: 16, Mode: "pct", Depth: 3}, w)
			if sum.Failure != nil {
				t.Fatalf("exploration failed (replay with -check.workload=%s):\n%v", name, sum.Failure)
			}
			t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
		})
	}
}

// TestExploreCompose explores the composition workloads on a u-SCL and
// a k-SCL Mutex: one seeded mix of Lock, TryLock, cancellable acquires,
// Do, Close and close-while-held (ghost releases), a sibling handle, the
// inactive GC and tracer swaps around every think. PCT hunts depth-3
// races, and a bounded DFS enumerates the first branching decisions.
func TestExploreCompose(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	n := 10000
	if testing.Short() {
		n = 1000
	}
	if *schedulesFlag > 0 {
		n = *schedulesFlag
	}
	for _, name := range []string{"mutex-compose", "kscl-compose"} {
		w, _ := workloads.Named(name)
		t.Run(name, func(t *testing.T) {
			sum := check.Explore(check.Opts{Schedules: n, Seed: 17, Mode: "pct", Depth: 3}, w)
			if sum.Failure != nil {
				t.Fatalf("exploration failed (replay with -check.workload=%s):\n%v", name, sum.Failure)
			}
			t.Logf("pct: %d runs, %d distinct schedules", sum.Runs, sum.Distinct)
			sum = check.ExploreDFS(check.DFSOpts{Depth: 10, MaxRuns: n / 5}, w)
			if sum.Failure != nil {
				t.Fatalf("DFS exploration failed:\n%v", sum.Failure)
			}
			t.Logf("dfs: %d runs, %d distinct schedules", sum.Runs, sum.Distinct)
		})
	}
}

// TestExploreScenarioCorpus runs PCT schedule exploration over every
// scenario in the starter corpus: each compiled scenario becomes an
// explorable workload (scenario.Workload) asserting mutual exclusion,
// accountant conservation, and full teardown on every schedule.
// Failures print a seed replayable with
//
//	go test ./internal/check -run TestExplore \
//	    -check.seed=<seed> -check.workload=scenario -check.scenario=<name>
func TestExploreScenarioCorpus(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	corpus, err := scenario.LoadCorpus(filepath.Join("..", "scenario", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	n := 150
	if testing.Short() {
		n = 30
	}
	if *schedulesFlag > 0 {
		n = *schedulesFlag
	}
	for _, s := range corpus {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := scenario.Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			w := scenario.Workload(c)
			sum := check.Explore(check.Opts{Schedules: n, Seed: int64(s.Seed), Mode: "pct", Depth: 3}, w)
			if sum.Failure != nil {
				t.Fatalf("exploration failed (replay with -check.workload=scenario -check.scenario=%s):\n%v",
					s.Name, sum.Failure)
			}
			t.Logf("%d runs, %d distinct schedules, %d total steps", sum.Runs, sum.Distinct, sum.Steps)
		})
	}
}

// TestExploreMutexDFS enumerates a small two-entity scenario
// exhaustively within a branching-depth bound — the small-bounds
// counterpart to the randomized modes.
func TestExploreMutexDFS(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexContend(workloads.ContendOpts{Entities: 2, Ops: 2, Seed: 5})
	max := 1500
	if testing.Short() {
		max = 300
	}
	sum := check.ExploreDFS(check.DFSOpts{Depth: 10, MaxRuns: max}, w)
	if sum.Failure != nil {
		t.Fatalf("DFS exploration failed:\n%v", sum.Failure)
	}
	t.Logf("%d runs, %d distinct schedules", sum.Runs, sum.Distinct)
}

// TestSchedDeterminism: one seed must produce bit-identical schedule
// signatures across repeated runs of the real-lock workload — the
// property seed replay rests on.
func TestSchedDeterminism(t *testing.T) {
	if *seedFlag != 0 {
		t.Skip("replay handled by TestExploreMutexChurn")
	}
	w := workloads.MutexChurn(workloads.MutexOpts{Seed: 6, Cancel: true, CloseMid: true})
	run := func() uint64 {
		s := check.NewSched(check.NewRandomChooser(99), 0)
		check.Install(s)
		defer check.Uninstall(s)
		w.Setup(s)
		res := s.Run()
		if res.Failure != nil {
			t.Fatalf("failure: %v", res.Failure)
		}
		return res.Sig
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules: %x vs %x", a, b)
	}
}
