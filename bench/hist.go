package main

import "math/bits"

// hist is a log-linear latency histogram over nanoseconds: values below 64
// have a bucket each, and every octave above is split into 64 buckets, so a
// bucket is at most 1/64 (1.6%) of its value wide. Recording is a few
// instructions and never allocates, which is what lets the traced run time
// every public call.
//
// Each sample carries a weight: a call timed as one of every 64 stands for
// 64 calls. Percentiles are taken over the weights; the tail rule counts
// samples.
type hist struct {
	counts [histBuckets]uint64
	n      uint64 // samples recorded
	w      uint64 // their total weight
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values clamp at 2^40 ns (~18 min)
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - histSubBits - 1
	return (e+1)*histSub + int(u>>e) - histSub
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	e := i/histSub - 1
	if e <= 0 {
		return float64(i), 1
	}
	return float64(uint64(i%histSub+histSub) << e), float64(uint64(1) << e)
}

func (h *hist) add(v int64, weight uint64) {
	h.counts[bucketOf(v)] += weight
	h.n++
	h.w += weight
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.w += o.w
	if o.max > h.max {
		h.max = o.max
	}
}

// tailQuantile applies the reporting rule for a percentile: q is honoured
// only while at least ten samples lie beyond it; with fewer samples the
// highest percentile that has ten beyond it is used instead, and with
// fewer than twenty samples the median.
func tailQuantile(q float64, n uint64) float64 {
	if n < 20 {
		if q > 0.5 {
			return 0.5
		}
		return q
	}
	if limit := 1 - 10/float64(n); q > limit {
		return limit
	}
	return q
}

// pct returns the q-quantile in nanoseconds under the tail rule,
// interpolating linearly inside the bucket that holds it: a value read as
// v on a 1 ns clock stands for [v, v+1). An empty histogram reads 0.
func (h *hist) pct(q float64) float64 {
	if h.w == 0 {
		return 0
	}
	target := tailQuantile(q, h.n) * float64(h.w)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo, width := bucketRange(i)
			return lo + width*(target-cum)/float64(c)
		}
		cum = next
	}
	return float64(h.max)
}
