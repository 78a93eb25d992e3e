package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"scl/internal/core"
	"scl/internal/metrics"
)

// Spans. A traced operation is an "op" span with three children: the
// acquire call, the critical section and the release call (for Handle.Do,
// the call up to the closure's start and from its end). The op span runs
// from the call (or, for a paced request, from its latency origin) to the
// end of the worker's think work, so its self time is the think work, the
// generator's delay and the harness's own bookkeeping.
type span struct {
	id, parent uint64
	layer      uint8
	start, end int64
}

const (
	layerOp = iota
	layerLock
	layerCS
	layerUnlock
)

var layerNames = [...]string{"op", "lock", "cs", "unlock"}

// selfTime is the part of parent's interval that none of its children
// covers: its duration minus the union of the children, each clipped to
// the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, reach := int64(0), parent.start
	for _, x := range iv {
		s := max(x[0], reach)
		if x[1] > s {
			covered += x[1] - s
			reach = x[1]
		}
	}
	return parent.end - parent.start - covered
}

// writeSpans writes every recorded span as one JSON line with its self
// time. Each worker's spans are stored op first, children after it.
func writeSpans(path string, workers []*worker) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type line struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
		Worker int    `json:"worker"`
		Layer  string `json:"layer"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Self   int64  `json:"self_ns"`
	}
	for _, w := range workers {
		for i := 0; i+4 <= len(w.spans); i += 4 {
			op := w.spans[i]
			for j, s := range w.spans[i : i+4] {
				self := s.end - s.start
				if j == 0 {
					self = selfTime(op, w.spans[i+1:i+4])
				}
				if err := enc.Encode(line{s.id, s.parent, w.idx, layerNames[s.layer], s.start, s.end, self}); err != nil {
					return fmt.Errorf("spans: %w", err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// Handoff pairing. Every traced release stores one stamp, {releasing
// entity, time of the release call}, in the lock's atomic "last release"
// word; an acquire that returns reads it and counts a handoff when a
// different entity released while the caller was already waiting.
const stampTimeBits = 56

func packStamp(entity int, at int64) uint64 {
	return uint64(entity+1)<<stampTimeBits | uint64(at)&(1<<stampTimeBits-1)
}

// handoffGap returns the time from the stamped release to heldAt, the
// moment the caller's acquire (called at callAt) returned, and whether the
// pair is a handoff.
func handoffGap(stamp uint64, me int, callAt, heldAt int64) (int64, bool) {
	if stamp == 0 {
		return 0, false
	}
	ent := int(stamp>>stampTimeBits) - 1
	rel := int64(stamp & (1<<stampTimeBits - 1))
	if ent == me || rel < callAt || rel > heldAt {
		return 0, false
	}
	return heldAt - rel, true
}

// opRec is one traced operation kept for replay: the replay entity, and
// when its acquire was called, when it returned and when the release was
// called.
type opRec struct {
	ent             int32
	call, held, rel int64
}

// replayed holds what replaying the traced operations into the inner
// layers measured.
type replayed struct {
	onAcquireNs, onReleaseNs, penaltyRatio, reservoirAddNs float64
}

// replay feeds the recorded operations, in time order, to a fresh
// core.Accountant with the lock's slice, the way the lock drives its own
// (a slice starts whenever a different entity acquires or the slice ran
// out), and the recorded waits to a metrics.Reservoir. Each accountant
// call is timed by a clock pair, and an empty clock pair taken right
// after it is subtracted; the means of the differences are reported,
// each difference capped so that a preemption cannot dominate.
func replay(recs []opRec, weights map[int32]int64, slice time.Duration, seed int64) replayed {
	type event struct {
		at      int64
		ent     int32
		acquire bool
	}
	evs := make([]event, 0, 2*len(recs))
	for _, r := range recs {
		evs = append(evs, event{r.held, r.ent, true}, event{r.rel, r.ent, false})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })

	var out replayed
	if len(evs) == 0 {
		return out
	}
	acct := core.NewAccountant(core.Params{Slice: slice})
	for ent, wt := range weights {
		acct.Register(core.ID(ent), wt, time.Duration(evs[0].at))
	}
	const capNs = 10_000
	timed := func(call func()) int64 {
		t0 := now()
		call()
		t1 := now()
		t2 := now()
		return min(t1-t0-(now()-t2), capNs)
	}
	var acqNs, relNs int64
	var releases, penalties int
	for _, e := range evs {
		id, at := core.ID(e.ent), time.Duration(e.at)
		if e.acquire {
			if owner, ok := acct.SliceOwner(); !ok || owner != id || acct.SliceExpired(at) {
				acct.StartSlice(id, at)
			}
			acqNs += timed(func() { acct.OnAcquire(id, at) })
			continue
		}
		var d core.Release
		relNs += timed(func() { d = acct.OnRelease(id, at) })
		releases++
		if d.Penalty > 0 {
			penalties++
		}
	}
	out.onAcquireNs = float64(acqNs) / float64(len(recs))
	out.onReleaseNs = float64(relNs) / float64(len(recs))
	out.penaltyRatio = float64(penalties) / float64(releases)

	res := metrics.NewReservoir(512, seed)
	t0 := now()
	for _, r := range recs {
		res.Add(time.Duration(r.held - r.call))
	}
	out.reservoirAddNs = float64(now()-t0) / float64(len(recs))
	return out
}
