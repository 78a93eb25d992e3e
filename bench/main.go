// Command sclload is the end-to-end benchmark of the scl locks. It runs
// workloads against the real Mutex, RWLock and Manager through their
// public entry points only, checks that every critical section ran under
// mutual exclusion, and prints the end-to-end metrics of each workload
// (or, with -trace 1, the per-layer metrics). See README.md.
//
//	bash bench/run.sh -seed 1                      all workloads
//	bash bench/run.sh -workload rw-mixed -seed 2 -seconds 10 -trace 1
//	bash bench/run.sh -compare a.jsonl b.jsonl     agreement of two result sets
//
// Each workload runs in a fresh child process of this binary, so the heap,
// peak RSS and set-up time of one workload are its own.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric and the unit and direction it is reported
// in. BENCHMARK.json lists the same metrics with their bounds.
type metricDef struct{ name, unit, better string }

var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s", "higher"},
	{"wait_p50_us", "us", "lower"},
	{"wait_p99_us", "us", "lower"},
	{"light_ops_s", "1/s", "higher"},
	{"light_wait_p99_us", "us", "lower"},
	{"jain", "ratio", "higher"},
	{"cpu_ns_per_op", "ns", "lower"},
	{"max_rss_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"trace.overhead_pct", "%", "lower"},
	{"lock.p50_ns", "ns", "lower"},
	{"lock.p99_ns", "ns", "lower"},
	{"unlock.p50_ns", "ns", "lower"},
	{"unlock.p99_ns", "ns", "lower"},
	{"light_lock.p50_ns", "ns", "lower"},
	{"light_lock.p99_ns", "ns", "lower"},
	{"handoff.p50_us", "us", "lower"},
	{"handoff.p99_us", "us", "lower"},
	{"stats.snapshot_p50_us", "us", "lower"},
	{"stats.handoffs_per_kop", "1/kop", "lower"},
	{"stats.bans", "count", "lower"},
	{"stats.ban_ratio", "ratio", "lower"},
	{"stats.idle_ratio", "ratio", "lower"},
	{"export.scrape_p50_us", "us", "lower"},
	{"export.scrape_max_us", "us", "lower"},
	{"combine.combined_ratio", "ratio", "higher"},
	{"rw.writer_hold_share", "ratio", "higher"},
	{"rw.writer_cancels", "count", "lower"},
	{"manager.materialize_ratio", "ratio", "lower"},
	{"manager.locks_reaped", "count", "lower"},
	{"manager.keys_live_max", "count", "lower"},
	{"core.on_acquire_ns", "ns", "lower"},
	{"core.on_release_ns", "ns", "lower"},
	{"core.penalty_ratio", "ratio", "lower"},
	{"metrics.reservoir_add_ns", "ns", "lower"},
	{"runtime.alloc_bytes_per_op", "B/op", "lower"},
	{"runtime.gc_count", "count", "lower"},
}

const (
	// setupRuns is how many extra fresh processes only set up, so that
	// setup_s is a median rather than one process start.
	setupRuns = 12
	warmup    = time.Second
	envT0     = "SCLLOAD_T0" // child start time, ns since the epoch
)

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		wl      = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 10, "measured window per workload, in seconds")
		traceOn = flag.Int("trace", 0, "1: traced run, printing the per-layer metrics")
		spans   = flag.String("spans", "", "span file of a traced run (default: spans-<workload>.jsonl beside the binary)")
		out     = flag.String("out", "", "append this run's metrics to a result-set file (JSON lines)")
		compare = flag.Bool("compare", false, "compare two result-set files given as arguments")
		bounds  = flag.String("bounds", "BENCHMARK.json", "benchmark definition holding the bounds, for -compare")
		child   = flag.String("child", "", "internal: run (measure one workload) or setup (set up only)")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args(), *bounds)
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "sclload: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var todo []*workload
	if *wl == "all" {
		todo = workloads
	} else if w := workloadNamed(*wl); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "sclload: unknown workload %q\n", *wl)
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *child != "" {
		return childMain(*child, config{workload: todo[0], seed: *seed, warmup: warmup,
			window: window, traced: *traceOn == 1, spans: *spans})
	}

	var report strings.Builder
	results := map[string]map[string]float64{}
	for _, w := range todo {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
			"-trace", fmt.Sprint(*traceOn)}
		if *traceOn == 1 {
			path := *spans
			if path == "" {
				path = defaultSpans(w.name)
			}
			args = append(args, "-spans", path)
		}
		res, err := measure(args, *traceOn == 1, window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sclload: %s: %v\n", w.name, err)
			return 1
		}
		defs := endToEnd
		if *traceOn == 1 {
			defs = perLayer
		}
		results[w.name] = res.Metrics
		if err := writeReport(&report, w.name, defs, res); err != nil {
			fmt.Fprintf(os.Stderr, "sclload: %s: %v\n", w.name, err)
			return 1
		}
	}
	if *out != "" {
		if err := appendResults(*out, *seed, *traceOn, *seconds, results); err != nil {
			fmt.Fprintf(os.Stderr, "sclload: %v\n", err)
			return 1
		}
	}
	fmt.Print(report.String())
	return 0
}

func defaultSpans(name string) string {
	exe, err := os.Executable()
	if err != nil {
		return "spans-" + name + ".jsonl"
	}
	return filepath.Join(filepath.Dir(exe), "spans-"+name+".jsonl")
}

// childMain runs inside a fresh process: it sets the workload up and
// either stops (setup) or measures it (run), printing the result as its
// last line of output.
func childMain(mode string, cfg config) int {
	start := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(envT0), 10, 64); err == nil {
		start = time.Unix(0, ns)
	}
	var res *result
	switch mode {
	case "setup":
		r := setUp(cfg)
		res = &result{Setup: time.Since(start).Seconds()}
		if err := r.shutDown(); err != nil {
			fmt.Fprintln(os.Stderr, "sclload:", err)
			return 1
		}
	case "run":
		var err error
		if res, err = execute(cfg, start); err != nil {
			fmt.Fprintln(os.Stderr, "sclload:", err)
			return 1
		}
	default:
		fmt.Fprintf(os.Stderr, "sclload: unknown -child mode %q\n", mode)
		return 2
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sclload:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// measure runs one workload's measured child between two groups of
// set-up-only children, and reports the measured result with setup_s as
// the median set-up time of all of them. The groups sit a window apart,
// so the median draws on two moments of the host's load.
func measure(args []string, traced bool, window time.Duration) (*result, error) {
	limit := warmup + 2*window + time.Minute
	args = args[:len(args):len(args)] // each spawn appends its own mode
	var setups []float64
	setUpOnly := func() error {
		for i := 0; i < setupRuns/2; i++ {
			res, err := spawn(append(args, "-child", "setup"), limit)
			if err != nil {
				return err
			}
			setups = append(setups, res.Setup)
		}
		return nil
	}
	if err := setUpOnly(); err != nil {
		return nil, err
	}
	res, err := spawn(append(args, "-child", "run"), limit)
	if err != nil {
		return nil, err
	}
	if err := setUpOnly(); err != nil {
		return nil, err
	}
	if !traced {
		res.Metrics["setup_s"] = median(append(setups, res.Setup))
	}
	return res, nil
}

// spawn runs this binary as a child with the given arguments and parses
// the result it prints; a child that outlives limit is killed.
func spawn(args []string, limit time.Duration) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), envT0+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("child %v printed no result: %w", args, err)
	}
	return &res, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeReport prints one line per metric, "workload metric value unit",
// then the extra numbers, then the workload's result as one JSON object:
// correctness, operations attempted and failed, and the metric set.
func writeReport(b *strings.Builder, name string, defs []metricDef, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := map[string]value{}
	for _, d := range defs {
		v := res.Metrics[d.name]
		vals[d.name] = value{v, d.unit}
		fmt.Fprintf(b, "%s %s %s %s\n", name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	extra := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Fprintf(b, "%s %s %s\n", name, k, strconv.FormatFloat(res.Extra[k], 'g', -1, 64))
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.Attempted, res.Failed, vals})
	if err != nil {
		return fmt.Errorf("result: %w", err) // a metric that is not a number
	}
	b.Write(line)
	b.WriteByte('\n')
	return nil
}

// runRecord is one line of a result-set file: one invocation's metrics
// per workload.
type runRecord struct {
	Seed    int64                         `json:"seed"`
	Trace   int                           `json:"trace"`
	Seconds float64                       `json:"seconds"`
	Results map[string]map[string]float64 `json:"results"`
}

func appendResults(path string, seed int64, trace int, seconds float64, results map[string]map[string]float64) error {
	line, err := json.Marshal(runRecord{seed, trace, seconds, results})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("result set: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	return errors.Join(werr, f.Close())
}
