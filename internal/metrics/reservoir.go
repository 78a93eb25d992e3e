package metrics

import (
	"math"
	"math/rand"
	"time"
)

// Reservoir keeps a bounded uniform sample of an unbounded stream of
// durations (Li's Algorithm L) so long simulations can record latency
// distributions without unbounded memory. The RNG is caller-seeded, keeping
// simulations deterministic.
//
// Algorithm L draws randomness only at replacements: after each one it
// draws how many stream items to skip before the next, so an observation
// that is not kept costs a counter increment and a compare. Past the
// first cap observations, the expected number of replacements among n
// observations is cap·ln(n/cap).
type Reservoir struct {
	cap     int
	seen    int64
	samples []time.Duration
	seed    int64
	rng     *rand.Rand
	w       float64 // Algorithm L's threshold: the largest kept item's key
	next    int64   // stream position of the next replacement (0: not drawn yet)
}

// NewReservoir returns a reservoir holding at most cap samples, drawing
// replacement decisions from the given seed. The RNG is materialized
// lazily, on the first observation past capacity: seeding a math/rand
// source costs microseconds and kilobytes, which dominates entity
// registration in churny workloads, and a stream that never overflows
// the reservoir never makes a replacement decision at all.
func NewReservoir(cap int, seed int64) *Reservoir {
	if cap <= 0 {
		cap = 1
	}
	return &Reservoir{cap: cap, seed: seed}
}

// rand returns the replacement RNG, seeding it on first use.
func (r *Reservoir) rand() *rand.Rand {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(r.seed))
	}
	return r.rng
}

// maxSkip bounds one drawn skip so the stream position cannot overflow.
const maxSkip = 1 << 62

// skip draws the stream position of the next replacement. The first call
// starts the sampler at the position where the reservoir filled.
func (r *Reservoir) skip() {
	rng := r.rand()
	if r.next == 0 {
		r.w, r.next = 1, int64(r.cap)
	}
	// 1-Float64() lies in (0, 1], so neither logarithm sees a zero.
	r.w *= math.Exp(math.Log(1-rng.Float64()) / float64(r.cap))
	gap := math.Floor(math.Log(1-rng.Float64()) / math.Log1p(-r.w))
	if !(gap < maxSkip) {
		gap = maxSkip
	}
	r.next += int64(gap) + 1
}

// replace puts d in a uniformly chosen slot and draws the next skip.
func (r *Reservoir) replace(d time.Duration) {
	r.samples[r.rand().Intn(r.cap)] = d
	r.skip()
}

// Add offers one observation to the reservoir.
func (r *Reservoir) Add(d time.Duration) {
	r.seen++
	if len(r.samples) < r.cap {
		r.samples = append(r.samples, d)
		return
	}
	if r.next == 0 {
		r.skip()
	}
	if r.seen == r.next {
		r.replace(d)
	}
}

// AddN offers n identical observations in one step. It is exactly n
// sequential Add calls — the same samples from the same seed — but costs
// one step per replacement instead of one per observation: it consumes
// whole skips, landing d only at the positions Add would have replaced.
// Batch accounting paths (lock fast-path folds) use this to record
// thousands of uniform observations per fold cheaply.
func (r *Reservoir) AddN(d time.Duration, n int64) {
	for ; n > 0 && len(r.samples) < r.cap; n-- {
		r.Add(d)
	}
	if n <= 0 {
		return
	}
	if r.next == 0 {
		r.skip()
	}
	end := r.seen + n
	for r.next <= end {
		r.seen = r.next
		r.replace(d)
	}
	r.seen = end
}

// Seen reports how many observations were offered in total.
func (r *Reservoir) Seen() int64 { return r.seen }

// Samples returns the retained sample. The returned slice is owned by the
// reservoir; callers must not modify it while still adding.
func (r *Reservoir) Samples() []time.Duration { return r.samples }

// Summary summarizes the retained sample.
func (r *Reservoir) Summary() Summary { return Summarize(r.samples) }
