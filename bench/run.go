package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"scl/export"
	"scl/internal/metrics"
)

// Modes a run passes through. Workers read the mode once per operation:
// warm-up operations are not counted, measured ones are (a 1-in-stride
// sample of them timed), traced ones are all timed and recorded.
const (
	modeWarm = iota
	modeMeasure
	modeTraced
	modeStop
	nModes = modeStop
)

const (
	// sampleStride is how many calls of a sub-microsecond closed-loop
	// worker stand behind one timed call in an untraced run: timing
	// every call would add two clock reads to a ~100 ns operation.
	sampleStride = 64
	// inputLen is the length of each worker's pre-drawn input table
	// (critical-section lengths, think work, keys, gaps); workers cycle
	// through it.
	inputLen  = 4096
	inputMask = inputLen - 1
	// traceSlot is how long a traced run stays in one mode before
	// switching: traced and untraced slots alternate, so the tracing
	// overhead is measured under the same conditions as the traced
	// numbers.
	traceSlot = 250 * time.Millisecond
	// subWindow is the length of the parts an untraced window is cut
	// into. Each end-to-end rate, percentile and CPU share is taken per
	// part and reported as the interquartile mean over the parts (see
	// midmean).
	subWindow = time.Second
	// maxSubWindows caps the parts; longer windows get longer parts.
	maxSubWindows = 64
	// Caps on what a traced run keeps in memory, over all workers.
	spanCap = 1 << 16
	recCap  = 1 << 18
	// requestDeadline bounds each paced request (LockContext,
	// WLockContext); expiries count as failed operations.
	requestDeadline = 250 * time.Millisecond
)

var clockBase = time.Now()

// now reads the monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(clockBase)) }

// worker is one goroutine of a workload. Everything in it is written only
// by that goroutine (or, for Handle.Do, by whichever goroutine runs its
// closure while the worker waits), and read by the controller after the
// worker has exited.
type worker struct {
	idx    int   // position in run.workers; the replay entity
	entity int   // the lock's schedulable entity, for handoff pairing
	weight int64 // the entity's weight, for replay
	light  bool  // member of the protected class
	paced  bool
	stride uint64 // untraced runs time one call in stride
	// waitToReturn makes the end-to-end wait end when the call returns
	// rather than when the lock is held (Handle.Do).
	waitToReturn bool

	calls  uint64
	ops    [nModes]uint64
	failed [nModes]uint64
	// Per sub-window of an untraced window: operations completed and the
	// end-to-end latency of the timed ones. The counters live in the
	// worker itself, a large allocation of its own, so that two workers
	// counting never share a cache line.
	sub     *atomic.Int32 // the current sub-window, set by the controller
	subOps  [maxSubWindows]uint64
	subWait []hist

	// Traced mode; lag (paced workers) in every measured mode.
	lock, unlock, handoff, lag hist
	spans                      []span
	recs                       []opRec
	nextOp                     uint64

	acc  uint64 // private think-work state
	body func(*worker)
}

// timed counts one call and reports whether it is timed.
func (w *worker) timed(m int32) bool {
	w.calls++
	return m == modeTraced || (m == modeMeasure && w.calls%w.stride == 0)
}

// pair records a handoff if the stamped release handed the lock to this
// worker's acquire.
func (w *worker) pair(stamp uint64, callAt, heldAt int64) {
	if gap, ok := handoffGap(stamp, w.entity, callAt, heldAt); ok {
		w.handoff.add(gap, 1)
	}
}

// book records one completed operation: from is the latency origin, t0
// the acquire call, t1 the moment the lock was held, t2 the release call,
// t3 its return and t4 the end of the worker's think work.
func (w *worker) book(m int32, timed bool, from, t0, t1, t2, t3, t4 int64) {
	w.ops[m]++
	var s int32
	if m == modeMeasure {
		s = w.sub.Load()
		w.subOps[s]++
	}
	if !timed {
		return
	}
	end := t1
	if w.waitToReturn {
		end = t3
	}
	switch m {
	case modeMeasure:
		w.subWait[s].add(end-from, w.stride)
	case modeTraced:
		w.lock.add(t1-t0, 1)
		w.unlock.add(t3-t2, 1)
		if len(w.recs) < cap(w.recs) {
			w.recs = append(w.recs, opRec{ent: int32(w.idx), call: t0, held: t1, rel: t2})
		}
		if len(w.spans)+4 <= cap(w.spans) {
			id := (uint64(w.idx)<<40 | w.nextOp) << 2
			w.nextOp++
			w.spans = append(w.spans,
				span{id, 0, layerOp, from, t4},
				span{id | 1, id, layerLock, t0, t1},
				span{id | 2, id, layerCS, t1, t2},
				span{id | 3, id, layerUnlock, t2, t3})
		}
	}
}

// burn performs private integer work (think time) until d nanoseconds
// have passed.
func burn(acc *uint64, d int64) {
	x := *acc | 1
	for end := now() + d; ; {
		for i := 0; i < 4; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		if now() >= end {
			break
		}
	}
	*acc = x
}

// config is one run of one workload.
type config struct {
	workload *workload
	seed     int64
	warmup   time.Duration
	window   time.Duration
	traced   bool
	spans    string // where a traced run writes its spans ("" = nowhere)
}

// run is one workload's execution: the workers the workload built, the
// mode they follow, and what the controller gathers around them.
type run struct {
	cfg     config
	mode    atomic.Int32
	sub     atomic.Int32
	stop    chan struct{}
	workers []*worker
	wg      sync.WaitGroup
	ready   sync.WaitGroup

	// Filled in by the workload's build function.
	stamps      []atomic.Uint64 // "last release" words, one per lock
	reg         *export.Registry
	stats       func() statsView
	check       func() error
	jainIDs     []int64 // entities for Jain's index; nil: closed-loop workers' ops
	jainLOT     bool    // Jain over lock opportunity (hold + idle), else hold
	replaySlice time.Duration

	scrape, snapshot hist // controller and scraper owned
	violations       atomic.Int64
	violMu           sync.Mutex
	firstViolation   string
}

// violate records a correctness violation; the run then fails.
func (r *run) violate(format string, args ...any) {
	if r.violations.Add(1) == 1 {
		r.violMu.Lock()
		r.firstViolation = fmt.Sprintf(format, args...)
		r.violMu.Unlock()
	}
}

// rng returns the seeded source of one of the workload's input streams.
func (r *run) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.seed*1_000_003 + stream*7_919))
}

// uniform draws an input table uniform on [mean/2, 3·mean/2].
func (r *run) uniform(stream, mean int64) []int64 {
	g := r.rng(stream)
	t := make([]int64, inputLen)
	for i := range t {
		t[i] = mean/2 + g.Int63n(mean+1)
	}
	return t
}

// poisson draws inter-arrival gaps (ns) of a Poisson stream of the rate.
func (r *run) poisson(stream int64, perSecond float64) []int64 {
	g := r.rng(stream)
	t := make([]int64, inputLen)
	for i := range t {
		t[i] = int64(g.ExpFloat64() / perSecond * 1e9)
	}
	return t
}

func (r *run) addWorker(w *worker) *worker {
	w.idx = len(r.workers)
	w.sub = &r.sub
	if w.stride == 0 {
		w.stride = 1
	}
	r.workers = append(r.workers, w)
	return w
}

// subWindows is the number of parts of an untraced window.
func (r *run) subWindows() int {
	return min(max(1, int(r.cfg.window/subWindow)), maxSubWindows)
}

// setUp builds the workload and starts its workers and the metrics
// scraper; it returns once every worker is running.
func setUp(cfg config) *run {
	r := &run{cfg: cfg, stop: make(chan struct{}), reg: export.NewRegistry()}
	cfg.workload.build(r)
	for _, w := range r.workers {
		w.subWait = make([]hist, r.subWindows())
	}
	if cfg.traced {
		for _, w := range r.workers {
			w.spans = make([]span, 0, spanCap/len(r.workers))
			w.recs = make([]opRec, 0, recCap/len(r.workers))
		}
	}
	r.ready.Add(len(r.workers))
	r.wg.Add(len(r.workers) + 1)
	for _, w := range r.workers {
		go func(w *worker) {
			defer r.wg.Done()
			r.ready.Done()
			w.body(w)
		}(w)
	}
	go r.scraper()
	r.ready.Wait()
	return r
}

// scraper renders the Prometheus exposition once per second, as a
// monitoring agent would.
func (r *run) scraper() {
	defer r.wg.Done()
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		t0 := now()
		if err := r.reg.WritePrometheus(io.Discard); err != nil {
			r.violate("export: %v", err)
		}
		r.scrape.add(now()-t0, 1)
	}
}

func (r *run) snap() statsView {
	t0 := now()
	s := r.stats()
	r.snapshot.add(now()-t0, 1)
	return s
}

// shutDown stops the workers and waits for them: each must exit within
// twice the window, or a grant was lost.
func (r *run) shutDown() error {
	r.mode.Store(modeStop)
	close(r.stop)
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	limit := max(2*r.cfg.window, 100*time.Millisecond)
	select {
	case <-done:
		return nil
	case <-time.After(limit):
		return fmt.Errorf("%s: a worker did not exit within %v of the stop (lost grant?)", r.cfg.workload.name, limit)
	}
}

// result is what one run of one workload reports.
type result struct {
	Setup     float64            `json:"setup_s"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Extra holds numbers printed for people but not part of the
	// benchmark's metric set (sample counts, generator lag).
	Extra map[string]float64 `json:"extra"`
}

// rusage reads the process's resource usage; it cannot fail for the
// calling process.
func rusage() *syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return &ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMiB is the process's peak resident set (Linux reports KiB).
func maxRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

// execute runs one workload from set-up to the correctness gate and
// returns its metrics: the end-to-end set for an untraced run, the
// per-layer set for a traced one. setupStart is when set-up began (for a
// fresh process, when the process was started).
func execute(cfg config, setupStart time.Time) (*result, error) {
	r := setUp(cfg)
	res := &result{Setup: time.Since(setupStart).Seconds(), Metrics: map[string]float64{}, Extra: map[string]float64{}}

	time.Sleep(cfg.warmup)
	var mem0, mem1 runtime.MemStats
	if cfg.traced {
		runtime.ReadMemStats(&mem0)
	}
	s0 := r.snap()
	var dur [nModes]time.Duration
	subDur := make([]time.Duration, r.subWindows())
	subCPU := make([]time.Duration, r.subWindows())
	keysMax := s0.keys
	if cfg.traced {
		slot := min(traceSlot, cfg.window/2)
		for i, left := 0, cfg.window; left > 0; i++ {
			m := int32(modeMeasure + i%2)
			d := min(slot, left)
			t := time.Now()
			r.mode.Store(m)
			time.Sleep(d)
			dur[m] += time.Since(t)
			left -= d
			keysMax = max(keysMax, r.snap().keys)
		}
	} else {
		for s := range subDur {
			t, c := time.Now(), cpuTime()
			r.sub.Store(int32(s))
			r.mode.Store(modeMeasure)
			time.Sleep(cfg.window / time.Duration(len(subDur)))
			subDur[s], subCPU[s] = time.Since(t), cpuTime()-c
		}
	}
	s1 := r.snap()
	if cfg.traced {
		runtime.ReadMemStats(&mem1)
	}
	if err := r.shutDown(); err != nil {
		return nil, err
	}
	if err := r.check(); err != nil {
		r.violate("%v", err)
	}
	if n := r.violations.Load(); n > 0 {
		return nil, fmt.Errorf("%s: %d correctness violation(s), first: %s", cfg.workload.name, n, r.firstViolation)
	}

	var ops [nModes]uint64
	for _, w := range r.workers {
		for m := modeMeasure; m < nModes; m++ {
			ops[m] += w.ops[m]
			res.Attempted += w.ops[m] + w.failed[m]
			res.Failed += w.failed[m]
		}
	}
	windowOps := float64(ops[modeMeasure] + ops[modeTraced])
	if res.Attempted > 0 {
		res.Extra["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
	}
	var lag hist
	for _, w := range r.workers {
		lag.merge(&w.lag)
	}
	if lag.n > 0 {
		res.Extra["gen.lag_p99_us"] = lag.pct(0.99) / 1e3
	}

	d := s1.minus(s0)
	if !cfg.traced {
		var rate, lightRate, p50, p99, lightP99, cpuPerOp []float64
		var samples, lightSamples uint64
		for s := range subDur {
			var n, lightN uint64
			var wait, lightWait hist
			for _, w := range r.workers {
				n += w.subOps[s]
				wait.merge(&w.subWait[s])
				if w.light {
					lightN += w.subOps[s]
					lightWait.merge(&w.subWait[s])
				}
			}
			secs := subDur[s].Seconds()
			rate = append(rate, float64(n)/secs)
			lightRate = append(lightRate, float64(lightN)/secs)
			p50 = append(p50, wait.pct(0.5)/1e3)
			p99 = append(p99, wait.pct(0.99)/1e3)
			lightP99 = append(lightP99, lightWait.pct(0.99)/1e3)
			cpuPerOp = append(cpuPerOp, float64(subCPU[s].Nanoseconds())/float64(max(n, 1)))
			samples += wait.n
			lightSamples += lightWait.n
		}
		m := res.Metrics
		m["throughput_ops_s"] = midmean(rate)
		m["wait_p50_us"] = midmean(p50)
		m["wait_p99_us"] = midmean(p99)
		m["light_ops_s"] = midmean(lightRate)
		m["light_wait_p99_us"] = midmean(lightP99)
		m["jain"] = r.jain(d)
		m["cpu_ns_per_op"] = midmean(cpuPerOp)
		m["max_rss_mb"] = maxRSSMiB()
		res.Extra["wait.samples"] = float64(samples)
		res.Extra["light_wait.samples"] = float64(lightSamples)
		return res, nil
	}

	var lock, unlock, lightLock, handoff hist
	var recs []opRec
	weights := map[int32]int64{}
	for _, w := range r.workers {
		if w.paced {
			lightLock.merge(&w.lock)
		} else {
			lock.merge(&w.lock)
			unlock.merge(&w.unlock)
			if w.light {
				lightLock.merge(&w.lock)
			}
		}
		handoff.merge(&w.handoff)
		recs = append(recs, w.recs...)
		weights[int32(w.idx)] = w.weight
	}
	rp := replay(recs, weights, r.replaySlice, cfg.seed)
	untraced := float64(ops[modeMeasure]) / dur[modeMeasure].Seconds()
	traced := float64(ops[modeTraced]) / dur[modeTraced].Seconds()
	window := (dur[modeMeasure] + dur[modeTraced]).Seconds()
	m := res.Metrics
	m["trace.overhead_pct"] = (1 - traced/untraced) * 100
	m["lock.p50_ns"] = lock.pct(0.5)
	m["lock.p99_ns"] = lock.pct(0.99)
	m["unlock.p50_ns"] = unlock.pct(0.5)
	m["unlock.p99_ns"] = unlock.pct(0.99)
	m["light_lock.p50_ns"] = lightLock.pct(0.5)
	m["light_lock.p99_ns"] = lightLock.pct(0.99)
	m["handoff.p50_us"] = handoff.pct(0.5) / 1e3
	m["handoff.p99_us"] = handoff.pct(0.99) / 1e3
	m["stats.snapshot_p50_us"] = r.snapshot.pct(0.5) / 1e3
	m["stats.handoffs_per_kop"] = float64(d.handoffs) / windowOps * 1e3
	m["stats.bans"] = float64(d.bans)
	m["stats.ban_ratio"] = d.banTime.Seconds() / window
	m["stats.idle_ratio"] = ratio(d.idle, d.elapsed)
	m["export.scrape_p50_us"] = r.scrape.pct(0.5) / 1e3
	m["export.scrape_max_us"] = float64(r.scrape.max) / 1e3
	m["combine.combined_ratio"] = float64(d.combined) / windowOps
	m["rw.writer_hold_share"] = ratio(d.writerHold, d.readerHold+d.writerHold)
	m["rw.writer_cancels"] = float64(d.writerCancels)
	m["manager.materialize_ratio"] = float64(d.materialized) / windowOps
	m["manager.locks_reaped"] = float64(d.reaped)
	m["manager.keys_live_max"] = float64(keysMax)
	m["core.on_acquire_ns"] = rp.onAcquireNs
	m["core.on_release_ns"] = rp.onReleaseNs
	m["core.penalty_ratio"] = rp.penaltyRatio
	m["metrics.reservoir_add_ns"] = rp.reservoirAddNs
	m["runtime.alloc_bytes_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / windowOps
	m["runtime.gc_count"] = float64(mem1.NumGC - mem0.NumGC)
	res.Extra["lock.samples"] = float64(lock.n)
	res.Extra["handoff.samples"] = float64(handoff.n)
	res.Extra["replay.ops"] = float64(len(recs))
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, r.workers); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// midmean is the interquartile mean: the mean of the values left after
// dropping the lowest and highest quarter. Like a median it ignores a few
// seconds disturbed by outside load; unlike a median it moves smoothly
// with the share of seconds the shared host spends in a slower state,
// where a median jumps from one state's value to the other's.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// jain is Jain's fairness index over the window: lock opportunity or hold
// time of the configured entities from the public stats, or, for a lock
// without per-entity books (RW-SCL), the closed-loop workers' operations.
func (r *run) jain(d statsView) float64 {
	var xs []float64
	if r.jainIDs == nil {
		for _, w := range r.workers {
			if !w.paced {
				xs = append(xs, float64(w.ops[modeMeasure]))
			}
		}
		return metrics.Jain(xs)
	}
	for _, id := range r.jainIDs {
		x := d.hold[id]
		if r.jainLOT {
			x += d.idle
		}
		xs = append(xs, float64(x))
	}
	return metrics.Jain(xs)
}

// pacedLoop issues the worker's requests on an absolute schedule with the
// given gaps, each under requestDeadline. op performs one request called
// at t0 and returns when the lock was held, the release call and its
// return. A request's latency counts from its due time when the previous
// request overran that due time, and from its send time otherwise; the
// gap between due and send is the generator's lag.
func (r *run) pacedLoop(w *worker, gaps []int64, op func(ctx context.Context, i int, t0 int64) (t1, t2, t3 int64, err error)) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	due := now()
	var prevEnd int64
	for i := 0; ; i++ {
		due += gaps[i&inputMask]
		if d := due - now(); d > 0 {
			timer.Reset(time.Duration(d))
			select {
			case <-timer.C:
			case <-r.stop:
				return
			}
		}
		m := r.mode.Load()
		if m == modeStop {
			return
		}
		send := now()
		from := pacedStart(due, send, prevEnd)
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		t1, t2, t3, err := op(ctx, i, send)
		cancel()
		if err != nil {
			w.failed[m]++
			prevEnd = now()
			continue
		}
		prevEnd = t3
		if m != modeWarm {
			w.lag.add(send-due, 1)
		}
		w.book(m, true, from, send, t1, t2, t3, t3)
	}
}

// pacedStart is a paced request's latency origin: its due time if the
// previous request was still running then, else the moment it was sent.
func pacedStart(due, send, prevEnd int64) int64 {
	if prevEnd > due {
		return due
	}
	return send
}
