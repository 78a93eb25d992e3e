package scl

import (
	"time"

	"scl/internal/metrics"
)

// distCap bounds the per-entity hold/wait reservoirs (Li's Algorithm L):
// each keeps a uniform sample of the entity's whole history in fixed
// memory, however long the lock lives, and draws randomness only when it
// replaces a sample.
const distCap = 512

// lockStats mirrors the simulator's lock accounting for the real-time
// locks: per-entity hold time, acquisition counts, wait and hold
// distributions, ban totals, and lock idle time. Callers must serialize
// access (the enclosing lock's mutex).
//
// Statistics are optional, like a lock's tracer: a nil *lockStats is a
// lock that keeps none, and every method below is a no-op on it (snapshot
// returns an empty StatsSnapshot). The locks update stats only through
// these methods, so whether a lock keeps them is decided here and nowhere
// else. A standalone Mutex keeps them; a Manager's key locks do not, since
// Manager.Stats reads only its stripe books and no key lock is exposed.
//
// Hold time is accounted as a holder-count integral per entity
// (Σ individual holds = ∫ holders_i(t) dt), so entities whose holds
// overlap themselves — several readers of one class, or siblings of one
// group — are credited every concurrent hold, not just the last one to
// acquire (the bug the map-of-start-times version had).
type lockStats struct {
	holders    int
	idleStart  time.Duration
	idle       time.Duration
	started    time.Duration
	entities   map[int64]*entityStats
	reaped     int64         // entities removed by the inactive-entity GC
	reapedHold time.Duration // hold time they had accumulated
	// gen counts removals from entities. A reference cached under an
	// older gen may point at a removed entry, so of re-resolves it.
	gen uint64
}

type entityStats struct {
	name         string
	acquisitions int64
	active       int           // outstanding holds; >1 only for shared/overlapping use
	settledAt    time.Duration // last hold-integral settlement
	opStart      time.Duration // when active went 0 -> 1 (per-op union sample)
	hold         time.Duration
	bans         int64
	banTime      time.Duration
	handoffs     int64
	cancels      int64
	combines     int64 // closures this entity executed for others as the combiner
	combined     int64 // closures of this entity executed by a combiner
	holds        *metrics.Reservoir
	waits        *metrics.Reservoir
}

// newLockStats returns the statistics of a lock created now.
func newLockStats() *lockStats {
	now := monotime()
	return &lockStats{entities: make(map[int64]*entityStats), idleStart: now, started: now}
}

func (s *lockStats) entity(id int64) *entityStats {
	e, ok := s.entities[id]
	if !ok {
		e = &entityStats{
			holds: metrics.NewReservoir(distCap, id),
			waits: metrics.NewReservoir(distCap, id+1),
		}
		s.entities[id] = e
	}
	return e
}

// of returns the stats entry of ref's entity through the reference cached
// on it, re-resolving the reference when an entry was removed since it was
// cached — the entity's own entry included, which is then created afresh.
func (s *lockStats) of(ref *entityRef) *entityStats {
	if ref.books == nil || ref.gen != s.gen {
		ref.books, ref.gen = s.entity(ref.id), s.gen
	}
	return ref.books
}

// settle advances the entity's hold integral to now.
func (e *entityStats) settle(now time.Duration) {
	if e.active > 0 && now > e.settledAt {
		e.hold += time.Duration(e.active) * (now - e.settledAt)
	}
	e.settledAt = now
}

// setName keeps the label an operation of the entity carried.
func (e *entityStats) setName(name string) {
	if name != "" {
		e.name = name
	}
}

// onAcquire books a hold of ref's entity starting at now after waiting
// wait.
func (s *lockStats) onAcquire(ref *entityRef, name string, now time.Duration, wait time.Duration) {
	if s == nil {
		return
	}
	if s.holders == 0 && now > s.idleStart {
		// The clamp matters with the atomic fast path: a fold may have
		// advanced idleStart past the (earlier) start of an in-flight
		// fast-path hold being back-filled here.
		s.idle += now - s.idleStart
	}
	s.holders++
	e := s.of(ref)
	e.setName(name)
	e.settle(now)
	if e.active == 0 {
		e.opStart = now
	}
	e.active++
	e.acquisitions++
	e.waits.Add(wait)
}

// onRelease ends a hold of ref's entity at now.
func (s *lockStats) onRelease(ref *entityRef, now time.Duration) {
	if s == nil {
		return
	}
	s.holders--
	if s.holders == 0 {
		s.idleStart = now
	}
	e := s.of(ref)
	e.settle(now)
	if e.active > 0 {
		e.active--
		if e.active == 0 {
			// One per-op sample per busy interval: for exclusive locks this
			// is exactly the critical-section length; for overlapping holds
			// of one entity it is the union interval.
			e.holds.Add(now - e.opStart)
		}
	}
}

// fold lands a batch of fast-path operations for entity id: ops
// acquisitions whose holds sum (as a wall-clock window) to window, all
// completed since the last fold while the lock-level holder count was
// zero. Totals (hold, acquisitions, idle) are exact; the hold/wait
// distributions receive the batch as uniform samples (mean hold, zero
// wait), since the fast path records no per-operation timestamps.
func (s *lockStats) fold(id int64, window time.Duration, ops int64, now time.Duration) {
	if s == nil {
		return
	}
	e := s.entity(id)
	e.settle(now)
	e.acquisitions += ops
	e.hold += window
	if ops > 0 {
		e.holds.AddN(window/time.Duration(ops), ops)
		e.waits.AddN(0, ops)
	}
	if s.holders == 0 {
		idle := now - s.idleStart - window
		if idle < 0 {
			idle = 0
		}
		s.idle += idle
		s.idleStart = now
	}
}

// onHandoff counts an ownership grant to ref's entity.
func (s *lockStats) onHandoff(ref *entityRef) {
	if s == nil {
		return
	}
	s.of(ref).handoffs++
}

// onBan books a penalty of the given length imposed on ref's entity.
func (s *lockStats) onBan(ref *entityRef, penalty time.Duration) {
	if s == nil {
		return
	}
	e := s.of(ref)
	e.bans++
	e.banTime += penalty
}

// onCombines counts n closures ref's entity executed for others as the
// combiner of one drain.
func (s *lockStats) onCombines(ref *entityRef, n int64) {
	if s == nil {
		return
	}
	s.of(ref).combines += n
}

// onCombinedOp books one combiner-executed critical section on behalf of
// ref's entity: the exact equivalent of onAcquire(start)/onRelease(end)
// at the closure's measured timestamps — hold integral, acquisition
// count, wait and hold samples, idle accounting — plus the delegation
// count. The lock-level holder count is untouched (the batch runs between
// the combiner's release and the next acquire, while holders is zero; the
// held state word, not this counter, is the mutual exclusion).
func (s *lockStats) onCombinedOp(ref *entityRef, name string, start, end, wait time.Duration) {
	if s == nil {
		return
	}
	if s.holders == 0 {
		if start > s.idleStart {
			s.idle += start - s.idleStart
		}
		s.idleStart = end
	}
	e := s.of(ref)
	e.setName(name)
	e.settle(start)
	if e.active == 0 {
		e.opStart = start
	}
	e.active++
	e.acquisitions++
	e.waits.Add(wait)
	e.settle(end)
	e.active--
	if e.active == 0 {
		e.holds.Add(end - e.opStart)
	}
	e.combined++
}

// onAbandon records a cancelled acquisition (a LockContext that gave up
// mid-ban or mid-queue). No hold or wait lands in the distributions: an
// abandoned attempt leaves the usage books exactly as if it never queued.
func (s *lockStats) onAbandon(ref *entityRef, name string) {
	if s == nil {
		return
	}
	e := s.of(ref)
	e.setName(name)
	e.cancels++
}

// onReap removes an entity's stats entry (the inactive-entity GC reaped
// it, or its residual entry after Close aged out). The entity's hold time
// folds into the reaped aggregate so lock-level totals stay meaningful;
// per-entity history (distributions, bans) is dropped with the entry —
// that is the point of the GC. It returns the entity's label for the reap
// event: its entry's, or on a lock without stats the label its handles
// were registered under, which ref (nil: none open) carries. A missing
// entry (reaped before its first op landed) is counted but contributes
// nothing.
func (s *lockStats) onReap(id int64, ref *entityRef, now time.Duration) string {
	if s == nil {
		if ref != nil {
			return ref.name
		}
		return ""
	}
	s.reaped++
	e, ok := s.entities[id]
	if !ok {
		return ""
	}
	e.settle(now)
	s.reapedHold += e.hold
	delete(s.entities, id)
	s.gen++
	return e.name
}

// sweepResidual reaps the entries of entities idle for at least idle with
// no hold outstanding and not vetoed by keep — what stays of entities that
// left the accountant through Close — and reports each to reaped with its
// label and idle time. A lock without stats has nothing to sweep.
func (s *lockStats) sweepResidual(now, idle time.Duration, keep func(id int64) bool, reaped func(id int64, name string, idle time.Duration)) {
	if s == nil {
		return
	}
	for id, e := range s.entities {
		if e.active != 0 || now-e.settledAt < idle || keep(id) {
			continue
		}
		since := now - e.settledAt
		reaped(id, s.onReap(id, nil, now), since)
	}
}

func (s *lockStats) snapshot(now time.Duration) StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	n := len(s.entities)
	snap := StatsSnapshot{
		Hold:         make(map[int64]time.Duration, n),
		Acquisitions: make(map[int64]int64, n),
		Names:        make(map[int64]string, n),
		Bans:         make(map[int64]int64, n),
		BanTime:      make(map[int64]time.Duration, n),
		Handoffs:     make(map[int64]int64, n),
		Cancels:      make(map[int64]int64, n),
		Combines:     make(map[int64]int64, n),
		Combined:     make(map[int64]int64, n),
		HoldDist:     make(map[int64]metrics.Summary, n),
		WaitDist:     make(map[int64]metrics.Summary, n),
		Idle:         s.idle,
		Elapsed:      now - s.started,
		Reaped:       s.reaped,
		ReapedHold:   s.reapedHold,
	}
	for id, e := range s.entities {
		hold := e.hold
		if e.active > 0 && now > e.settledAt {
			hold += time.Duration(e.active) * (now - e.settledAt)
		}
		snap.Hold[id] = hold
		snap.Acquisitions[id] = e.acquisitions
		if e.name != "" {
			snap.Names[id] = e.name
		}
		snap.Bans[id] = e.bans
		snap.BanTime[id] = e.banTime
		snap.Handoffs[id] = e.handoffs
		snap.Cancels[id] = e.cancels
		snap.Combines[id] = e.combines
		snap.Combined[id] = e.combined
		snap.HoldDist[id] = e.holds.Summary()
		snap.WaitDist[id] = e.waits.Summary()
	}
	if s.holders == 0 && now > s.idleStart {
		snap.Idle += now - s.idleStart
	}
	return snap
}

// StatsSnapshot is a point-in-time view of a lock's usage accounting.
type StatsSnapshot struct {
	// Hold maps entity ID to cumulative lock hold time.
	Hold map[int64]time.Duration
	// Acquisitions maps entity ID to acquisition count.
	Acquisitions map[int64]int64
	// Names maps entity ID to the label set via Handle.SetName (entries
	// exist only for named entities).
	Names map[int64]string
	// Bans counts penalties imposed per entity; BanTime is their total
	// length (paper §4.2 penalties).
	Bans    map[int64]int64
	BanTime map[int64]time.Duration
	// Handoffs counts ownership grants received per entity (slice
	// transfers and intra-entity sibling handoffs).
	Handoffs map[int64]int64
	// Cancels counts acquisitions abandoned per entity: LockContext calls
	// that returned ctx.Err() from the ban sleep or the waiter queue. An
	// abandoned attempt charges no usage and keeps no queue position.
	Cancels map[int64]int64
	// Combines counts, per entity, combined critical sections the entity
	// executed for others while releasing (Handle.Do batches it drained);
	// Combined counts the entity's own critical sections that a combiner
	// executed on its behalf. Combined sections still appear in Hold,
	// Acquisitions and the distributions under the publishing entity.
	Combines map[int64]int64
	Combined map[int64]int64
	// HoldDist and WaitDist summarize per-operation hold and wait (queue
	// plus ban) distributions from bounded reservoir samples.
	HoldDist map[int64]metrics.Summary
	WaitDist map[int64]metrics.Summary
	// Idle is the total time the lock was unheld.
	Idle time.Duration
	// Elapsed is the time since the lock was created.
	Elapsed time.Duration
	// Registered is the number of entities currently registered in the
	// lock's accounting. With WithInactiveGC this tracks the active set;
	// the per-entity maps above may hold fewer entries than entities ever
	// seen (reaped entities are dropped from them).
	Registered int
	// Reaped counts entities removed by the inactive-entity GC
	// (WithInactiveGC) since the lock was created; ReapedHold is the hold
	// time they had accumulated, kept so lock-level hold totals remain
	// meaningful after their per-entity entries are gone.
	Reaped     int64
	ReapedHold time.Duration
}

// LOT returns the entity's lock opportunity time (paper eq. 1): its own
// hold time plus the lock's idle time.
func (s StatsSnapshot) LOT(id int64) time.Duration { return s.Hold[id] + s.Idle }

// JainHold computes Jain's fairness index over the entities' hold times.
func (s StatsSnapshot) JainHold(ids ...int64) float64 {
	xs := make([]float64, len(ids))
	for i, id := range ids {
		xs[i] = float64(s.Hold[id])
	}
	return metrics.Jain(xs)
}

// JainLOT computes Jain's fairness index over lock opportunity times.
func (s StatsSnapshot) JainLOT(ids ...int64) float64 {
	xs := make([]float64, len(ids))
	for i, id := range ids {
		xs[i] = float64(s.LOT(id))
	}
	return metrics.Jain(xs)
}

// IDs returns the entity IDs present in the snapshot, unordered.
func (s StatsSnapshot) IDs() []int64 {
	ids := make([]int64, 0, len(s.Hold))
	for id := range s.Hold {
		ids = append(ids, id)
	}
	return ids
}

// ID returns the handle's entity identifier, usable with StatsSnapshot.
func (h *Handle) ID() int64 { return int64(h.id) }
