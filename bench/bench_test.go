package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
	"unsafe"
)

// TestSmoke runs every workload for 200 ms, untraced and traced, through
// the correctness gate.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl, seed: 1, window: 200 * time.Millisecond, traced: traced}
			if traced {
				cfg.spans = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := execute(cfg, time.Now())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			defs := endToEnd[:len(endToEnd)-1] // setup_s is added by the parent
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", wl.name, traced, d.name, v, ok)
				}
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: no operations attempted", wl.name, traced)
			}
			if traced {
				checkSpanFile(t, cfg.spans)
			}
		}
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s struct {
			Layer      string
			Start, End int64 `json:"-"`
			Self       int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n, err)
		}
		if s.Self < 0 {
			t.Fatalf("span line %d: negative self time %d", n, s.Self)
		}
		n++
	}
	if n == 0 || n%4 != 0 {
		t.Fatalf("span file holds %d lines, want a positive multiple of 4", n)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    uint64
		want float64
	}{
		{0.99, 1000, 0.99},
		{0.99, 5000, 0.99},
		{0.99, 500, 0.98},
		{0.99, 100, 0.9},
		{0.5, 20, 0.5},
		{0.99, 20, 0.5},
		{0.99, 10, 0.5},
		{0.25, 5, 0.25},
	} {
		if got := tailQuantile(c.q, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
}

func TestHistPercentile(t *testing.T) {
	fill := func(n int) *hist {
		h := &hist{}
		for v := 1; v <= n; v++ {
			h.add(int64(v), 1)
		}
		return h
	}
	for _, c := range []struct {
		n       int
		q, want float64
		tol     float64
	}{
		{1000, 0.5, 500, 500 * 0.02},
		{1000, 0.99, 990, 990 * 0.02},
		{100, 0.99, 90, 1}, // only 100 samples: p90 is the highest with 10 beyond
		{50, 0.5, 25, 1},
		{10, 0.99, 5, 1}, // under 20 samples: the median
	} {
		if got := fill(c.n).pct(c.q); math.Abs(got-c.want) > c.tol {
			t.Errorf("n=%d pct(%v) = %v, want %v±%v", c.n, c.q, got, c.want, c.tol)
		}
	}
	if got := (&hist{}).pct(0.5); got != 0 {
		t.Errorf("empty hist pct = %v, want 0", got)
	}
	// Weights: one sample standing for 99 calls outweighs one standing for one.
	h := &hist{}
	h.add(100, 99)
	h.add(10_000, 1)
	if got := h.pct(0.5); got < 100 || got > 102 {
		t.Errorf("weighted median = %v, want ~100", got)
	}
	// Bucket edges round-trip: every value lands in a bucket that holds it.
	for _, v := range []int64{0, 1, 63, 64, 127, 128, 1000, 123456789, 1 << 39} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d in bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestPacedStart(t *testing.T) {
	for _, c := range []struct {
		name               string
		due, send, prevEnd int64
		want               int64
	}{
		{"on time", 1000, 1005, 900, 1005},
		{"sleep overshoot only", 1000, 1900, 900, 1900},
		{"previous overran the due time", 1000, 1500, 1500, 1000},
		{"previous ended exactly at due", 1000, 1010, 1000, 1010},
	} {
		if got := pacedStart(c.due, c.send, c.prevEnd); got != c.want {
			t.Errorf("%s: pacedStart = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestHandoffGap(t *testing.T) {
	for _, c := range []struct {
		name           string
		stamp          uint64
		me             int
		callAt, heldAt int64
		want           int64
		ok             bool
	}{
		{"no release yet", 0, 1, 10, 20, 0, false},
		{"own release", packStamp(1, 15), 1, 10, 20, 0, false},
		{"other entity released while waiting", packStamp(2, 15), 1, 10, 20, 5, true},
		{"release before the call: lock was idle", packStamp(2, 5), 1, 10, 20, 0, false},
		{"release at the call", packStamp(2, 10), 1, 10, 20, 10, true},
		{"entity zero", packStamp(0, 15), 1, 10, 40, 25, true},
	} {
		got, ok := handoffGap(c.stamp, c.me, c.callAt, c.heldAt)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: handoffGap = %d,%v, want %d,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	op := span{start: 0, end: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"contiguous children", []span{{start: 0, end: 30}, {start: 30, end: 60}, {start: 60, end: 100}}, 0},
		{"gaps", []span{{start: 10, end: 30}, {start: 40, end: 60}}, 60},
		{"overlapping children count once", []span{{start: 10, end: 50}, {start: 30, end: 70}}, 40},
		{"children clipped to the parent", []span{{start: -20, end: 10}, {start: 90, end: 130}}, 80},
		{"child outside the parent", []span{{start: 200, end: 300}}, 100},
	} {
		if got := selfTime(op, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMidmean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},           // the extremes drop out
		{[]float64{9, 1, 5, 5, 5, 5, 5, 5}, 5},   // a disturbed second on either side
		{[]float64{1, 1, 1, 1, 2, 2, 2, 2}, 1.5}, // two states: the middle half's mean
	} {
		if got := midmean(c.xs); got != c.want {
			t.Errorf("midmean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartiles pins the exclusive method of Python's
// statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}}, // extrapolated, as Python does
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestAtDepth checks that each rw-mixed reader depth sits stackStride
// bytes below the one before, so the depths cover every value of the
// address bits the RWLock hashes a reader's shard from.
func TestAtDepth(t *testing.T) {
	// Each offset is taken within one call, so a stack that grows (and
	// moves) between calls does not change it.
	var below [readerDepths]uintptr
	for k := range below {
		var base byte
		atDepth(k, func() {
			p := frameAddr()
			below[k] = uintptr(unsafe.Pointer(&base)) - p
		})
	}
	for k := 1; k < readerDepths; k++ {
		if d := below[k] - below[k-1]; d != stackStride {
			t.Errorf("depth %d sits %d bytes below depth %d, want %d", k, d, k-1, stackStride)
		}
	}
}

//go:noinline
func frameAddr() uintptr {
	var probe byte
	return uintptr(unsafe.Pointer(&probe))
}

// TestProbes checks that the critical-section probes report overlaps.
func TestProbes(t *testing.T) {
	r := &run{}
	sh := &shared{}
	sh.owner.Store(7)
	sh.section(r, 1, 1)
	if r.violations.Load() == 0 {
		t.Error("mutex probe missed a section entered while another held")
	}

	r = &run{}
	tb := &table{}
	tb.writer.Store(1)
	tb.read(r, 0, 1)
	if r.violations.Load() == 0 {
		t.Error("rw probe missed a reader beside a writer")
	}

	r = &run{}
	tb = &table{}
	tb.readers[1].in.Store(1)
	tb.write(r, 0, 0)
	if r.violations.Load() == 0 {
		t.Error("rw probe missed a writer beside a reader")
	}
}

// TestDefinitionMatchesCatalog checks that BENCHMARK.json lists exactly
// the workloads and metrics this program reports, with the same units and
// directions.
func TestDefinitionMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, m, w)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
}
