package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"scl"
)

// workload is one input shape of the benchmark; BENCHMARK.json and
// README.md say why each is there. build creates the locks and workers
// from the run's seed; the rest of the harness sees only the workers, the
// lock's public stats and its invariant check.
type workload struct {
	name  string
	build func(r *run)
}

var workloads = []*workload{
	{"owner-fastpath", buildOwnerFastpath},
	{"kscl-subversion", buildKSCL},
	{"combine-do", buildCombineDo},
	{"rw-mixed", buildRWMixed},
	{"tenant-table", buildTenantTable},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Mean durations of the sub-microsecond work. Every critical section,
// read and think phase runs for a drawn duration on the clock, not a drawn
// iteration count, so the work an operation does is the same however fast
// the host runs the process, and run-to-run spread comes from the locks.
// A clock read costs about 40 ns, so these sections are one to three
// rounds of work.
const (
	csNs       = 50
	thinkNs    = 50
	readNs     = 200
	tableCells = 64
	// readerYield is how many reads an rw-mixed reader does between
	// yields of its processor, as a request-serving goroutine blocks
	// between requests. Two readers that never yield hold both processors,
	// and the paced writer's wake-up timer then waits for the runtime's
	// 10 ms preemption: its latency would measure the Go scheduler rather
	// than the lock.
	readerYield = 1024
	// readerDepths is how many stack depths, stackStride bytes apart, an
	// rw-mixed reader issues its batches of readerYield reads from. The
	// RWLock picks a reader's shard from the caller's stack address, so
	// two identical reader loops at one depth share a shard or not by
	// where the runtime placed their stacks: a per-process coin flip that
	// moved wait_p99_us by a quarter between runs. Readers reached through
	// different call paths sit at different depths; drawing each batch's
	// depth from the seed gives every run the same mix of shared and
	// separate shards.
	readerDepths = 8
	stackStride  = 512
	tenantKeys   = 64
	zipfS        = 1.1
	weightEqual  = 1024
)

// statsView is the subset of a lock's public stats the benchmark reads.
type statsView struct {
	elapsed, idle            time.Duration
	hold                     map[int64]time.Duration
	handoffs, bans, combined int64
	banTime                  time.Duration
	readerHold, writerHold   time.Duration
	writerCancels            int64
	materialized, reaped     int64
	keys                     int
}

// minus returns the change from an earlier view.
func (s statsView) minus(o statsView) statsView {
	d := s
	d.hold = map[int64]time.Duration{}
	for id, h := range s.hold {
		d.hold[id] = h - o.hold[id]
	}
	d.elapsed -= o.elapsed
	d.idle -= o.idle
	d.handoffs -= o.handoffs
	d.bans -= o.bans
	d.combined -= o.combined
	d.banTime -= o.banTime
	d.readerHold -= o.readerHold
	d.writerHold -= o.writerHold
	d.writerCancels -= o.writerCancels
	d.materialized -= o.materialized
	d.reaped -= o.reaped
	return d
}

func mutexView(m *scl.Mutex) func() statsView {
	return func() statsView {
		s := m.Stats()
		v := statsView{elapsed: s.Elapsed, idle: s.Idle, hold: s.Hold}
		for id := range s.Hold {
			v.handoffs += s.Handoffs[id]
			v.bans += s.Bans[id]
			v.banTime += s.BanTime[id]
			v.combined += s.Combined[id]
		}
		return v
	}
}

func rwView(l *scl.RWLock) func() statsView {
	return func() statsView {
		s := l.Stats()
		return statsView{elapsed: s.Elapsed, idle: s.Idle, readerHold: s.ReaderHold,
			writerHold: s.WriterHold, writerCancels: s.WriterCancels}
	}
}

func managerView(m *scl.Manager) func() statsView {
	return func() statsView {
		s := m.Stats()
		v := statsView{hold: map[int64]time.Duration{}, materialized: s.Materialized,
			reaped: s.LocksReaped, keys: s.Keys}
		for _, t := range s.Tenants {
			v.hold[t.ID] = t.Hold
			v.bans += t.Bans
			v.banTime += t.BanTime
		}
		return v
	}
}

// shared is what a mutex workload's critical sections update: a
// mutual-exclusion probe, a few counters, and the number of sections run,
// which must equal the operations the workers completed. It fills three
// whole cache lines, so nothing allocated beside it shares one.
type shared struct {
	owner atomic.Int64
	_     [56]byte
	vals  [8]uint64
	total uint64
	_     [56]byte
}

// section runs one critical section for worker me: counter updates until
// d nanoseconds have passed. The probe swaps the holder's mark in and
// out; any other mark means two holders overlapped.
func (s *shared) section(r *run, me, d int64) {
	if prev := s.owner.Swap(me); prev != 0 {
		r.violate("mutual exclusion: worker %d entered while worker %d held", me-1, prev-1)
	}
	s.total++
	for i, end := 0, now()+d; ; i++ {
		s.vals[i&7]++
		if now() >= end {
			break
		}
	}
	if !s.owner.CompareAndSwap(me, 0) {
		r.violate("mutual exclusion: worker %d lost the lock inside its critical section", me-1)
	}
}

// completed is the number of operations the workers finished in every
// mode, warm-up included.
func (r *run) completed() uint64 {
	var n uint64
	for _, w := range r.workers {
		for _, c := range w.ops {
			n += c
		}
	}
	return n
}

func checkTotal(r *run, total uint64) error {
	if done := r.completed(); total != done {
		return fmt.Errorf("%d critical sections ran for %d completed operations", total, done)
	}
	return nil
}

// mutexSpec is a Mutex workload: one closed-loop entity per mean
// critical-section length.
type mutexSpec struct {
	opts   scl.Options
	cs     []int64 // mean critical section of each entity, ns
	light  int     // the one protected entity; -1: every entity is
	stride uint64  // untraced sampling stride
	think  bool    // entities think between operations
	do     bool    // entities call Handle.Do instead of Lock/Unlock
}

func (s mutexSpec) build(r *run) {
	m := scl.NewMutex(s.opts)
	r.reg.RegisterMutex("", m)
	r.stamps = make([]atomic.Uint64, 1)
	r.stats = mutexView(m)
	r.jainLOT = true
	r.replaySlice = max(s.opts.Slice, 0)
	if s.opts.Slice == 0 {
		r.replaySlice = scl.DefaultSlice
	}
	sh := &shared{}
	for i, mean := range s.cs {
		h := m.Register()
		r.jainIDs = append(r.jainIDs, h.ID())
		w := r.addWorker(&worker{entity: int(h.ID()), weight: weightEqual, light: s.light < 0 || s.light == i,
			stride: s.stride, waitToReturn: s.do})
		cs := r.uniform(int64(2*i), mean)
		var think []int64
		if s.think {
			think = r.uniform(int64(2*i+1), thinkNs)
		}
		if s.do {
			w.body = func(w *worker) { r.doLoop(w, h, sh, cs) }
		} else {
			w.body = func(w *worker) { r.lockLoop(w, h, sh, cs, think) }
		}
	}
	r.check = func() error {
		if err := m.CheckInvariants(); err != nil {
			return err
		}
		return checkTotal(r, sh.total)
	}
}

var (
	buildOwnerFastpath = mutexSpec{opts: scl.Options{Name: "owner-fastpath"},
		cs: []int64{csNs, csNs}, light: -1, stride: sampleStride, think: true}.build
	buildKSCL = mutexSpec{opts: scl.Options{Name: "kscl-subversion", Slice: -1},
		// A bully and the victim it would subvert.
		cs: []int64{int64(20 * time.Microsecond), int64(2 * time.Microsecond)}, light: 1, stride: 1}.build
	buildCombineDo = mutexSpec{opts: scl.Options{Name: "combine-do", Slice: 100 * time.Microsecond},
		cs: []int64{csNs, csNs}, light: -1, stride: sampleStride, do: true}.build
)

// lockLoop is a closed-loop Lock/CS/Unlock worker with optional think work.
func (r *run) lockLoop(w *worker, h *scl.Handle, sh *shared, cs, think []int64) {
	me := int64(w.idx + 1)
	stamp := &r.stamps[0]
	for i := 0; ; i++ {
		m := r.mode.Load()
		if m == modeStop {
			return
		}
		timed := w.timed(m)
		var t0, t1, t2, t3 int64
		if timed {
			t0 = now()
		}
		h.Lock()
		if timed {
			t1 = now()
		}
		if m == modeTraced {
			w.pair(stamp.Load(), t0, t1)
		}
		sh.section(r, me, cs[i&inputMask])
		if timed {
			t2 = now()
		}
		if m == modeTraced {
			stamp.Store(packStamp(w.entity, t2))
		}
		h.Unlock()
		if timed {
			t3 = now()
		}
		t4 := t3
		if think != nil {
			burn(&w.acc, think[i&inputMask])
			if m == modeTraced {
				t4 = now()
			}
		}
		w.book(m, timed, t0, t0, t1, t2, t3, t4)
	}
}

// doCall is one worker's Handle.Do in flight. The worker writes it before
// the call and reads it after; in between the closure, which may run on
// the goroutine of whichever holder combines it, reads and writes it.
type doCall struct {
	seq, ran       uint64
	n              int64
	timed, traced  bool
	t0             int64
	csStart, csEnd int64
}

// doLoop is a closed-loop Handle.Do worker. Its closure checks that it
// runs exactly once per call. The handoff stamps pair closure ends with
// other entities' closure starts.
func (r *run) doLoop(w *worker, h *scl.Handle, sh *shared, cs []int64) {
	me := int64(w.idx + 1)
	stamp := &r.stamps[0]
	c := &doCall{}
	fn := func() {
		if c.timed {
			c.csStart = now()
		}
		if c.traced {
			w.pair(stamp.Load(), c.t0, c.csStart)
		}
		if c.ran+1 != c.seq {
			r.violate("Do: closure %d of worker %d ran after %d", c.seq, me-1, c.ran)
		}
		c.ran = c.seq
		sh.section(r, me, c.n)
		if c.timed {
			c.csEnd = now()
		}
		if c.traced {
			stamp.Store(packStamp(w.entity, c.csEnd))
		}
	}
	for i := 0; ; i++ {
		m := r.mode.Load()
		if m == modeStop {
			return
		}
		c.timed = w.timed(m)
		c.traced = m == modeTraced
		c.seq++
		c.n = cs[i&inputMask]
		if c.timed {
			c.t0 = now()
		}
		h.Do(fn)
		if c.ran != c.seq {
			r.violate("Do: worker %d call %d returned with closure count %d", me-1, c.seq, c.ran)
		}
		var t3 int64
		if c.timed {
			t3 = now()
		}
		w.book(m, c.timed, c.t0, c.t0, c.csStart, c.csEnd, t3, t3)
	}
}

// table is the rw-mixed shared state. Readers sum the cells, which
// writers keep at zero; the probe flags (one per reader, one for the
// writer) detect a reader and a writer inside at once.
type table struct {
	writer  atomic.Int32
	_       [60]byte
	readers [2]struct {
		in atomic.Int32
		_  [60]byte
	}
	cells  [tableCells]int64
	writes uint64
}

// read runs one read-side critical section, sweeps of the table until d
// nanoseconds have passed. Its probe flag goes up before the first writer
// check and comes down after the second, so with the writer's
// mirror-image protocol any overlap is seen by at least one side.
func (t *table) read(r *run, slot int, d int64) {
	in := &t.readers[slot].in
	in.Store(1)
	if t.writer.Load() != 0 {
		r.violate("rw: reader %d entered beside a writer", slot)
	}
	var sum int64
	for end := now() + d; ; {
		for _, c := range t.cells {
			sum += c
		}
		if now() >= end {
			break
		}
	}
	if sum != 0 {
		r.violate("rw: reader %d saw a half-written table (sum %d)", slot, sum)
	}
	if t.writer.Load() != 0 {
		r.violate("rw: a writer entered beside reader %d", slot)
	}
	in.Store(0)
}

func (t *table) readersIn() bool {
	for i := range t.readers {
		if t.readers[i].in.Load() != 0 {
			return true
		}
	}
	return false
}

// write runs one write-side critical section for d nanoseconds, moving
// value between cells so their sum stays zero.
func (t *table) write(r *run, d int64, k int) {
	if t.writer.Swap(1) != 0 {
		r.violate("rw: two writers inside")
	}
	if t.readersIn() {
		r.violate("rw: writer entered beside a reader")
	}
	for end := now() + d; now() < end; k++ {
		t.cells[k%tableCells]++
		t.cells[(k+1)%tableCells]--
	}
	t.writes++
	if t.readersIn() {
		r.violate("rw: a reader entered beside the writer")
	}
	t.writer.Store(0)
}

func buildRWMixed(r *run) {
	const readers, writeRate = 2, 200
	l := scl.NewRWLock(9, 1, 2*time.Millisecond, scl.WithName("rw-mixed"))
	r.reg.RegisterRWLock("", l)
	r.stamps = make([]atomic.Uint64, 1)
	r.stats = rwView(l)
	r.replaySlice = 2 * time.Millisecond
	t := &table{}
	const readClass, writeClass = 0, 1
	for i := 0; i < readers; i++ {
		slot := i
		reads := r.uniform(int64(i), readNs)
		depths := make([]int, inputLen)
		g := r.rng(int64(20 + i))
		for j := range depths {
			depths[j] = g.Intn(readerDepths)
		}
		w := r.addWorker(&worker{entity: readClass, weight: 9, stride: sampleStride})
		w.body = func(w *worker) { r.readLoop(w, l, t, slot, reads, depths) }
	}
	cs := r.uniform(10, int64(5*time.Microsecond))
	gaps := r.poisson(11, writeRate)
	stamp := &r.stamps[0]
	w := r.addWorker(&worker{entity: writeClass, weight: 1, light: true, paced: true})
	w.body = func(w *worker) {
		r.pacedLoop(w, gaps, func(ctx context.Context, i int, t0 int64) (int64, int64, int64, error) {
			if err := l.WLockContext(ctx); err != nil {
				return 0, 0, 0, err
			}
			t1 := now()
			traced := r.mode.Load() == modeTraced
			if traced {
				w.pair(stamp.Load(), t0, t1)
			}
			t.write(r, cs[i&inputMask], i)
			t2 := now()
			if traced {
				stamp.Store(packStamp(w.entity, t2))
			}
			l.WUnlock()
			return t1, t2, now(), nil
		})
	}
	r.check = func() error {
		if err := l.CheckInvariants(); err != nil {
			return err
		}
		if done := w.ops[modeWarm] + w.ops[modeMeasure] + w.ops[modeTraced]; t.writes != done {
			return fmt.Errorf("rw: %d writes ran for %d completed write operations", t.writes, done)
		}
		return nil
	}
}

// readLoop is a closed-loop RLock/read/RUnlock worker. It reads in
// batches of readerYield, each from the stack depth drawn for it, and
// yields its processor between batches.
func (r *run) readLoop(w *worker, l *scl.RWLock, t *table, slot int, reads []int64, depths []int) {
	i := 0
	batch := func() {
		for end := i + readerYield; i < end; i++ {
			if !r.readOnce(w, l, t, slot, reads[i&inputMask]) {
				return
			}
		}
	}
	for b := 0; r.mode.Load() != modeStop; b++ {
		atDepth(depths[b&inputMask], batch)
		runtime.Gosched()
	}
}

// atDepth calls f from k frames of stackStride bytes below its caller.
//
//go:noinline
func atDepth(k int, f func()) {
	var pad [stackStride - 32]byte // the rest of the frame is 32 bytes
	if k > 0 {
		atDepth(k-1, f)
	} else {
		f()
	}
	keepFrame(&pad)
}

//go:noinline
func keepFrame(*[stackStride - 32]byte) {}

// readOnce is one RLock/read/RUnlock of a reader; it reports false, doing
// nothing, once the run has stopped.
func (r *run) readOnce(w *worker, l *scl.RWLock, t *table, slot int, d int64) bool {
	m := r.mode.Load()
	if m == modeStop {
		return false
	}
	stamp := &r.stamps[0]
	timed := w.timed(m)
	var t0, t1, t2, t3 int64
	if timed {
		t0 = now()
	}
	l.RLock()
	if timed {
		t1 = now()
	}
	if m == modeTraced {
		w.pair(stamp.Load(), t0, t1)
	}
	t.read(r, slot, d)
	if timed {
		t2 = now()
	}
	if m == modeTraced {
		stamp.Store(packStamp(w.entity, t2))
	}
	l.RUnlock()
	if timed {
		t3 = now()
	}
	w.book(m, timed, t0, t0, t1, t2, t3, t3)
	return true
}

func buildTenantTable(r *run) {
	const lights, lightRate = 3, 300
	m := scl.NewManager(scl.ManagerOptions{Name: "tenant-table"}, scl.WithStripes(4), scl.WithLockGC(20*time.Millisecond))
	r.reg.RegisterManager("", m)
	r.stamps = make([]atomic.Uint64, tenantKeys)
	r.stats = managerView(m)
	keys := make([]string, tenantKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	cells := make([]shared, tenantKeys)

	// request runs a grant's critical section on key k and releases it.
	request := func(w *worker, g *scl.Grant, k int, d int64, t0, t1 int64) (int64, int64) {
		traced := r.mode.Load() == modeTraced
		if traced {
			w.pair(r.stamps[k].Load(), t0, t1)
		}
		cells[k].section(r, int64(w.idx+1), d)
		t2 := now()
		if traced {
			r.stamps[k].Store(packStamp(w.entity, t2))
		}
		g.Unlock()
		return t2, now()
	}

	noisy := m.Tenant("noisy", weightEqual)
	noisyCS := r.uniform(0, int64(200*time.Microsecond))
	noisyKeys := make([]int64, inputLen)
	g := r.rng(1)
	for i := range noisyKeys {
		noisyKeys[i] = g.Int63n(tenantKeys)
	}
	nw := r.addWorker(&worker{entity: int(noisy.ID()), weight: weightEqual})
	nw.body = func(w *worker) {
		for i := 0; ; i++ {
			md := r.mode.Load()
			if md == modeStop {
				return
			}
			k := int(noisyKeys[i&inputMask])
			t0 := now()
			gr, err := noisy.LockContext(context.Background(), keys[k])
			if err != nil {
				r.violate("manager: LockContext without a deadline failed: %v", err)
				return
			}
			t1 := now()
			t2, t3 := request(w, gr, k, noisyCS[i&inputMask], t0, t1)
			w.book(md, true, t0, t0, t1, t2, t3, t3)
		}
	}

	for j := 0; j < lights; j++ {
		tn := m.Tenant(fmt.Sprintf("light-%d", j), weightEqual)
		r.jainIDs = append(r.jainIDs, tn.ID())
		cs := r.uniform(int64(10+3*j), int64(20*time.Microsecond))
		gaps := r.poisson(int64(11+3*j), lightRate)
		z := rand.NewZipf(r.rng(int64(12+3*j)), zipfS, 1, tenantKeys-1)
		ks := make([]int, inputLen)
		for i := range ks {
			ks[i] = int(z.Uint64())
		}
		w := r.addWorker(&worker{entity: int(tn.ID()), weight: weightEqual, light: true, paced: true})
		w.body = func(w *worker) {
			r.pacedLoop(w, gaps, func(ctx context.Context, i int, t0 int64) (int64, int64, int64, error) {
				k := ks[i&inputMask]
				gr, err := tn.LockContext(ctx, keys[k])
				if err != nil {
					return 0, 0, 0, err
				}
				t1 := now()
				t2, t3 := request(w, gr, k, cs[i&inputMask], t0, t1)
				return t1, t2, t3, nil
			})
		}
	}
	r.replaySlice = 0 // the stripe books charge every release, k-SCL style
	r.check = func() error {
		if err := m.CheckInvariants(); err != nil {
			return err
		}
		var total uint64
		for i := range cells {
			total += cells[i].total
		}
		return checkTotal(r, total)
	}
}
