package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestJainEqual(t *testing.T) {
	if got := Jain([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Jain(equal) = %v, want 1", got)
	}
}

func TestJainDominated(t *testing.T) {
	// One of n entities gets everything -> 1/n.
	got := Jain([]float64{10, 0, 0, 0})
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("Jain = %v, want 0.25", got)
	}
}

func TestJainToyExampleMutex(t *testing.T) {
	// Paper Table 2: LOT (20, 1) gives a fairness index of ~0.55.
	got := Jain([]float64{20, 1})
	if got < 0.5 || got > 0.6 {
		t.Fatalf("Jain(20,1) = %v, want ~0.55", got)
	}
}

func TestJainDegenerate(t *testing.T) {
	if Jain(nil) != 1 || Jain([]float64{0, 0}) != 1 {
		t.Fatalf("degenerate Jain not 1")
	}
}

func TestJainRange(t *testing.T) {
	f := func(xs []int32) bool {
		vals := make([]float64, len(xs))
		for i, x := range xs {
			vals[i] = math.Abs(float64(x)) // allocation-sized magnitudes
		}
		j := Jain(vals)
		return j > 0 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedJain(t *testing.T) {
	// Allocations exactly proportional to weights -> 1.
	got := WeightedJain([]float64{30, 10}, []float64{3, 1})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("WeightedJain = %v, want 1", got)
	}
	if got := WeightedJain([]float64{10, 10}, []float64{3, 1}); got >= 1 {
		t.Fatalf("disproportional allocation scored %v, want < 1", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v, want 1", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Fatalf("q.25 = %v, want 2", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i := range xs {
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		qa, qb := math.Mod(math.Abs(a), 1), math.Mod(math.Abs(b), 1)
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Microsecond
	}
	s := Summarize(ds)
	if s.Count != 100 || s.Min != time.Microsecond || s.Max != 100*time.Microsecond {
		t.Fatalf("bad summary bounds: %+v", s)
	}
	if s.P50 < 49*time.Microsecond || s.P50 > 52*time.Microsecond {
		t.Fatalf("P50 = %v", s.P50)
	}
	if s.P99 < 98*time.Microsecond {
		t.Fatalf("P99 = %v", s.P99)
	}
	if s.Mean != 50500*time.Nanosecond {
		t.Fatalf("Mean = %v, want 50.5us", s.Mean)
	}
	if Summarize(nil).Count != 0 {
		t.Fatalf("empty summary has nonzero count")
	}
}

func TestMicros(t *testing.T) {
	if got := Micros(1500 * time.Nanosecond); got != "1.50" {
		t.Fatalf("Micros = %q, want 1.50", got)
	}
}

func TestCDF(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2}
	pts := CDF(ds, 4)
	if len(pts) != 4 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[3].Value != 4 || pts[3].Fraction != 1 {
		t.Fatalf("last point %+v, want max with fraction 1", pts[3])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
			t.Fatalf("CDF not monotonic at %d: %+v %+v", i, pts[i-1], pts[i])
		}
	}
	if CDF(nil, 10) != nil {
		t.Fatalf("empty CDF not nil")
	}
}

func TestCDFDownsamples(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i)
	}
	pts := CDF(ds, 10)
	if len(pts) != 10 {
		t.Fatalf("got %d points, want 10", len(pts))
	}
}

func TestFractionBelow(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4}
	if got := FractionBelow(ds, 3); got != 0.5 {
		t.Fatalf("FractionBelow = %v, want 0.5", got)
	}
	if got := FractionBelow(nil, 3); got != 0 {
		t.Fatalf("empty FractionBelow = %v", got)
	}
}

func TestReservoirSmall(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(time.Duration(i))
	}
	if r.Seen() != 5 || len(r.Samples()) != 5 {
		t.Fatalf("seen %d len %d", r.Seen(), len(r.Samples()))
	}
}

func TestReservoirBoundedAndUniform(t *testing.T) {
	r := NewReservoir(1000, 42)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		r.Add(time.Duration(rng.Intn(1000)))
	}
	if len(r.Samples()) != 1000 {
		t.Fatalf("reservoir size %d, want 1000", len(r.Samples()))
	}
	// Uniform source: the retained median should be near 500.
	s := r.Summary()
	if s.P50 < 350 || s.P50 > 650 {
		t.Fatalf("retained median %v far from 500", s.P50)
	}
}

func TestReservoirDeterministic(t *testing.T) {
	run := func() []time.Duration {
		r := NewReservoir(100, 99)
		for i := 0; i < 10000; i++ {
			r.Add(time.Duration(i))
		}
		out := make([]time.Duration, len(r.Samples()))
		copy(out, r.Samples())
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reservoir not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "lock", "tput", "fair")
	tb.AddRow("mutex", 123, 0.540)
	tb.AddRow("u-SCL", 456789, 1.0)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "u-SCL") {
		t.Fatalf("missing content:\n%s", out)
	}
	if !strings.Contains(out, "0.54") || strings.Contains(out, "0.540") {
		t.Fatalf("float trimming wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

// TestReservoirInclusionUniform checks Algorithm L's defining property
// across many seeds: every stream position, inside the initial fill or
// past it, ends up in the sample with probability cap/n.
func TestReservoirInclusionUniform(t *testing.T) {
	const (
		cap  = 10
		n    = 100
		runs = 20000
	)
	kept := make([]int, n)
	for seed := int64(0); seed < runs; seed++ {
		r := NewReservoir(cap, seed)
		for i := 0; i < n; i++ {
			r.Add(time.Duration(i))
		}
		if len(r.Samples()) != cap {
			t.Fatalf("seed %d: %d samples, want %d", seed, len(r.Samples()), cap)
		}
		for _, d := range r.Samples() {
			kept[d]++
		}
	}
	want := float64(cap) / n
	// The standard error of one share is sqrt(p(1-p)/runs) ≈ 0.0021; the
	// tolerance is about five of them.
	for i, k := range kept {
		if got := float64(k) / runs; math.Abs(got-want) > 0.01 {
			t.Errorf("position %d retained in %.4f of runs, want %.2f", i, got, want)
		}
	}
}

// TestReservoirAddNMatchesAdd checks that AddN(d, n) is n Add(d) calls:
// the same Seen count and the same retained copies of d, seed by seed,
// with observations before and after the batch. Across seeds the mean
// number of copies matches cap·n/total, the share uniform sampling keeps.
func TestReservoirAddNMatchesAdd(t *testing.T) {
	const (
		cap    = 16
		before = 40
		batch  = 500
		after  = 60
		runs   = 4000
		d      = time.Duration(-1) // distinct from the stream's 0..k values
	)
	count := func(r *Reservoir) int {
		c := 0
		for _, s := range r.Samples() {
			if s == d {
				c++
			}
		}
		return c
	}
	var copies int
	for seed := int64(0); seed < runs; seed++ {
		one, bulk := NewReservoir(cap, seed), NewReservoir(cap, seed)
		for i := 0; i < before; i++ {
			one.Add(time.Duration(i))
			bulk.Add(time.Duration(i))
		}
		for i := 0; i < batch; i++ {
			one.Add(d)
		}
		bulk.AddN(d, batch)
		for i := 0; i < after; i++ {
			one.Add(time.Duration(i))
			bulk.Add(time.Duration(i))
		}
		if one.Seen() != bulk.Seen() {
			t.Fatalf("seed %d: Seen %d after Adds, %d after AddN", seed, one.Seen(), bulk.Seen())
		}
		if a, b := count(one), count(bulk); a != b {
			t.Fatalf("seed %d: %d copies of d after Adds, %d after AddN", seed, a, b)
		}
		copies += count(bulk)
	}
	want := float64(cap) * batch / (before + batch + after)
	if got := float64(copies) / runs; math.Abs(got-want) > 0.05*want {
		t.Errorf("mean copies of the batch value %.3f, want %.3f", got, want)
	}
	// A batch straddling the initial fill takes the same path.
	one, bulk := NewReservoir(cap, 3), NewReservoir(cap, 3)
	for i := 0; i < 5; i++ {
		one.Add(d)
	}
	bulk.AddN(d, 5)
	if one.Seen() != bulk.Seen() || count(one) != count(bulk) {
		t.Fatalf("partial-fill batch: Seen %d/%d, copies %d/%d", one.Seen(), bulk.Seen(), count(one), count(bulk))
	}
}
