package scenario

import (
	"fmt"
	"slices"

	"scl/sim"
)

// The differential oracle executes one deterministic script through
// two independent implementations of the paper's policy and compares
// what they observed:
//
//   - the discrete-event simulator (sim.RunScript, sim.RunRWScript), and
//   - the real scl lock under the deterministic checker's forced
//     schedule and virtual clock (RunCheck), so its timing is as exact
//     as the simulator's.
//
// Both share internal/core's accounting policy but nothing else:
// queueing, slices, handoff, cancellation and GC are implemented twice.
// Agreement on grant order, timeout outcomes, ban counts and hold
// shares is therefore real evidence that the library implements the
// policy the simulator (and the paper's experiments) predict;
// disagreement pinpoints which side deviates, on a script small enough
// to read.
//
// The two sides are compared modulo the following structural,
// documented divergences; anything else Compare reports is a finding,
// unless the scenario's allow list names its code:
//
//   - Cost-model jitter: the simulator charges nanosecond-scale
//     micro-architectural costs (CAS, park/wake, handoff) that the
//     checker's virtual clock does not. Scripts keep decisions
//     millisecond-separated so no discrete outcome (grant order, ban
//     incidence, timeout outcome) depends on them; the residual shows
//     up only in measured hold time, absorbed by ShareTolerance.
//   - Ban length, not count: penalties are computed from usage
//     integrals, which differ by the same nanosecond jitter, so ban
//     lengths differ in their low digits. Compare checks ban counts per
//     entity, not lengths.
//   - Prefetch: the simulator side runs the parked (no-prefetch) lock
//     variant, because a spinning head waiter could never abandon on
//     timeout while the real LockContext can abandon any queued waiter
//     until the grant lands. Prefetch changes handoff latency
//     (sub-microsecond), not grant order.

// Divergence codes Compare can emit.
const (
	// DivGrantOrder: the global grant orders differ.
	DivGrantOrder = "grant-order"
	// DivTimeouts: per-entity timed-out acquire counts differ.
	DivTimeouts = "timeouts"
	// DivBans: per-entity imposed-penalty counts differ.
	DivBans = "bans"
	// DivHoldShare: an entity's share of total hold time differs by
	// more than ShareTolerance.
	DivHoldShare = "hold-share"
)

// ShareTolerance bounds the acceptable per-entity hold-share gap; it
// absorbs the simulator's nanosecond-scale cost-model jitter on
// millisecond-scale scripts.
const ShareTolerance = 0.05

// Divergence is one comparator finding.
type Divergence struct {
	// Code is one of the Div* constants.
	Code string
	// Detail describes the mismatch with both sides' values.
	Detail string
}

// String renders the divergence.
func (d Divergence) String() string { return d.Code + ": " + d.Detail }

// Compare checks two executions of one script for policy equivalence
// and returns every divergence (empty = equivalent).
func Compare(simR, realR sim.ScriptResult) []Divergence {
	var out []Divergence
	if !slices.Equal(simR.Grants, realR.Grants) {
		out = append(out, Divergence{DivGrantOrder,
			fmt.Sprintf("sim %v, real %v", simR.Grants, realR.Grants)})
	}
	if !slices.Equal(simR.Timeouts, realR.Timeouts) {
		out = append(out, Divergence{DivTimeouts,
			fmt.Sprintf("sim %v, real %v", simR.Timeouts, realR.Timeouts)})
	}
	if !slices.Equal(simR.Bans, realR.Bans) {
		out = append(out, Divergence{DivBans,
			fmt.Sprintf("sim %v, real %v", simR.Bans, realR.Bans)})
	}
	for e := range simR.Hold {
		a, b := simR.HoldShare(e), realR.HoldShare(e)
		if d := a - b; d > ShareTolerance || d < -ShareTolerance {
			out = append(out, Divergence{DivHoldShare,
				fmt.Sprintf("entity %d: sim %.3f, real %.3f", e, a, b)})
		}
	}
	return out
}

// DivGrantCount is the scenario oracle's own divergence code: emitted
// when a scenario allows grant-order (reader batches released in a
// different permutation) but the per-entity grant counts still
// disagree — a permutation excuses ordering, never volume. It can
// never be allowed.
const DivGrantCount = "grant-count"

// Diff runs the compiled scenario on the sim and check substrates and
// compares them with Compare, splitting findings into divergences the
// scenario documents (its allow list) and undocumented ones: any
// deterministic scenario is a differential test. When a
// scenario allows grant-order, the grant multiset is still enforced:
// each entity must be granted the same number of times on both sides.
// Multi-key scenarios compare key by key: each key is an independent
// lock on both substrates, so grant order is only defined within a
// key, and a divergence names the key it came from.
func Diff(c *Compiled) (allowed, undocumented []Divergence, err error) {
	if len(c.Keyed) > 0 {
		return diffKeyed(c)
	}
	simR := RunSim(c)
	realR, err := RunCheck(c)
	if err != nil {
		return nil, nil, err
	}
	allowed, undocumented = splitDivergences(c, Compare(simR, realR), simR, realR, -1)
	return allowed, undocumented, nil
}

// diffKeyed runs the per-key differential comparison of a multi-key
// scenario.
func diffKeyed(c *Compiled) (allowed, undocumented []Divergence, err error) {
	simPer := make([]sim.ScriptResult, len(c.Keyed))
	for k, s := range c.Keyed {
		simPer[k] = sim.RunScript(*s)
	}
	realPer, err := runCheckKeyed(c)
	if err != nil {
		return nil, nil, err
	}
	for k := range c.Keyed {
		a, u := splitDivergences(c, Compare(simPer[k], realPer[k]), simPer[k], realPer[k], k)
		allowed = append(allowed, a...)
		undocumented = append(undocumented, u...)
	}
	return allowed, undocumented, nil
}

// splitDivergences sorts comparator findings into documented and
// undocumented per the scenario's allow list, applies the grant-count
// supplement when grant-order is allowed, and prefixes the key of a
// multi-key comparison (key >= 0) so a divergence names its lock.
func splitDivergences(c *Compiled, divs []Divergence, simR, realR sim.ScriptResult, key int) (allowed, undocumented []Divergence) {
	tag := func(d Divergence) Divergence {
		if key >= 0 {
			d.Detail = fmt.Sprintf("key %d: %s", key, d.Detail)
		}
		return d
	}
	for _, d := range divs {
		if slices.Contains(c.Scenario.Allow, d.Code) {
			allowed = append(allowed, tag(d))
		} else {
			undocumented = append(undocumented, tag(d))
		}
	}
	if slices.Contains(c.Scenario.Allow, DivGrantOrder) {
		a, b := foldGrants(simR), foldGrants(realR)
		for e := range a {
			if a[e] != b[e] {
				undocumented = append(undocumented, tag(Divergence{
					Code:   DivGrantCount,
					Detail: fmt.Sprintf("entity %d: sim %d grants, real %d", e, a[e], b[e]),
				}))
			}
		}
	}
	return allowed, undocumented
}

// foldGrants folds a grant order into per-entity counts (indexed by
// whatever entity space r uses — global for merged results, local for
// one key's).
func foldGrants(r sim.ScriptResult) []int {
	counts := make([]int, len(r.Hold))
	for _, e := range r.Grants {
		counts[e]++
	}
	return counts
}
