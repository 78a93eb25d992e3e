package scenario

import (
	"math/rand"
	"testing"
	"time"
)

func us(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

// TestSteppedTimes pins the exact dispatch schedule: step boundaries
// are exact multiples of the step length, requests are evenly spaced
// from each boundary, and zero-count steps are idle.
func TestSteppedTimes(t *testing.T) {
	cases := []struct {
		name   string
		step   time.Duration
		counts []int
		want   []time.Duration
	}{
		{
			name: "ramp", step: 10 * time.Millisecond, counts: []int{2, 4},
			want: []time.Duration{
				0, us(5000),
				us(10000), us(12500), us(15000), us(17500),
			},
		},
		{
			name: "one-step", step: time.Millisecond, counts: []int{3},
			want: []time.Duration{0, 333333 * time.Nanosecond, 666666 * time.Nanosecond},
		},
		{
			name: "zero-rate-middle", step: 2 * time.Millisecond, counts: []int{1, 0, 1},
			want: []time.Duration{0, us(4000)},
		},
		{
			name: "all-zero", step: time.Millisecond, counts: []int{0, 0},
			want: nil,
		},
		{
			name: "empty", step: time.Millisecond, counts: nil,
			want: nil,
		},
		{
			name: "single-request", step: 5 * time.Millisecond, counts: []int{1},
			want: []time.Duration{0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SteppedTimes(tc.step, tc.counts)
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("dispatch %d: got %v, want %v (full: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}

// TestSteppedBoundariesExact: for every step with a non-zero count,
// the first dispatch of the step lands exactly on the step boundary
// tick — no drift accumulates across steps regardless of truncating
// intra-step spacing.
func TestSteppedBoundariesExact(t *testing.T) {
	step := 7 * time.Millisecond // deliberately indivisible spacings
	counts := []int{3, 7, 0, 11, 1}
	times := SteppedTimes(step, counts)
	i := 0
	for s, c := range counts {
		if c == 0 {
			continue
		}
		boundary := time.Duration(s) * step
		if times[i] != boundary {
			t.Fatalf("step %d: first dispatch at %v, want exact boundary %v", s, times[i], boundary)
		}
		// All of this step's dispatches stay inside the window.
		for j := 0; j < c; j++ {
			if times[i+j] < boundary || times[i+j] >= boundary+step {
				t.Fatalf("step %d dispatch %d at %v escapes [%v, %v)", s, j, times[i+j], boundary, boundary+step)
			}
		}
		i += c
	}
}

// TestSteppedGapperRoundRobin: a group of n entities partitions the
// schedule round-robin, and each entity's cumulative gaps reconstruct
// exactly its own dispatch times.
func TestSteppedGapperRoundRobin(t *testing.T) {
	a := Arrival{Kind: ArrivalStepped, Step: 10 * time.Millisecond, Counts: []int{2, 4}}
	all := SteppedTimes(a.Step, a.Counts)
	n := 3
	seen := make(map[time.Duration]int)
	for idx := 0; idx < n; idx++ {
		g := newSteppedGapper(a, idx, n)
		var at time.Duration
		for k := 0; ; k++ {
			gap, ok := g.NextGap()
			if !ok {
				break
			}
			at += gap
			want := all[idx+k*n]
			if at != want {
				t.Fatalf("entity %d dispatch %d reconstructs %v, want %v", idx, k, at, want)
			}
			seen[at]++
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("round-robin covered %d dispatch times, schedule has %d", len(seen), len(all))
	}
}

// TestClosedGapperSeeded: same seed, same draws; the stream is
// exhausted after exactly ops draws, and every draw is a quantized
// sample of the think distribution.
func TestClosedGapperSeeded(t *testing.T) {
	mk := func() Gapper {
		g := &Group{Count: 1, Ops: 5, Arrival: Arrival{Kind: ArrivalClosed},
			Think: Dist{Kind: DistUniform, A: us(100), B: us(900)}}
		return g.newGapper(0, 1, rand.New(rand.NewSource(42)))
	}
	a, b := mk(), mk()
	for i := 0; i < 5; i++ {
		ga, oka := a.NextGap()
		gb, okb := b.NextGap()
		if !oka || !okb {
			t.Fatalf("draw %d: stream ended early", i)
		}
		if ga != gb {
			t.Fatalf("draw %d: same seed diverged: %v vs %v", i, ga, gb)
		}
		if ga%Quantum != 0 || ga < Quantum {
			t.Fatalf("draw %d: %v off the quantum grid", i, ga)
		}
		if ga > us(900)+Quantum {
			t.Fatalf("draw %d: %v above the distribution's upper bound", i, ga)
		}
	}
	if _, ok := a.NextGap(); ok {
		t.Fatal("stream did not end after ops draws")
	}
}

// TestPoissonGapperSeeded: exponential gaps are seed-deterministic,
// quantized, and capped at 8x the mean.
func TestPoissonGapperSeeded(t *testing.T) {
	mean := us(500)
	mk := func(seed int64) []time.Duration {
		g := &Group{Count: 1, Ops: 64, Arrival: Arrival{Kind: ArrivalPoisson, Mean: mean}}
		gp := g.newGapper(0, 1, rand.New(rand.NewSource(seed)))
		var out []time.Duration
		for {
			gap, ok := gp.NextGap()
			if !ok {
				break
			}
			out = append(out, gap)
		}
		return out
	}
	a, b := mk(9), mk(9)
	if len(a) != 64 {
		t.Fatalf("got %d draws, want 64", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: same seed diverged", i)
		}
		if a[i]%Quantum != 0 {
			t.Fatalf("draw %d: %v off the quantum grid", i, a[i])
		}
		if a[i] > 8*mean+Quantum {
			t.Fatalf("draw %d: %v above the 8x-mean cap", i, a[i])
		}
	}
	c := mk(10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

// TestDistSampleEdges: degenerate distribution shapes keep sampling
// on-grid and positive.
func TestDistSampleEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []Dist{
		{Kind: DistFixed, A: us(1)},                 // below one quantum
		{Kind: DistFixed, A: Quantum},               // exactly one quantum
		{Kind: DistUniform, A: us(100), B: us(100)}, // zero-width uniform
		{Kind: DistExp, A: us(10)},                  // tiny mean
	}
	for _, d := range cases {
		for i := 0; i < 32; i++ {
			v := d.Sample(rng)
			if v < Quantum || v%Quantum != 0 {
				t.Fatalf("%v: sample %v not a positive quantum multiple", d, v)
			}
		}
	}
}

// TestEntitySeedDistinct: per-entity derived seeds are distinct across
// a realistic population so no two entities share an RNG stream.
func TestEntitySeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for g := 0; g < 8; g++ {
		for i := 0; i < 64; i++ {
			s := entitySeed(1, g, i)
			if seen[s] {
				t.Fatalf("duplicate entity seed for group %d entity %d", g, i)
			}
			seen[s] = true
		}
	}
}
