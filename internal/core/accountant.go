package core

import (
	"fmt"
	"time"

	"scl/internal/check"
)

// ID identifies a schedulable entity (a thread in the paper; a registered
// goroutine handle, process, connection or tenant here).
type ID int64

// Params configures an Accountant.
type Params struct {
	// Slice is the lock slice: the window during which a single owner may
	// acquire and release the lock as often as it likes with fast-path cost
	// and deferred accounting (paper §4.2). Slice 0 (k-SCL) makes every
	// release a slice boundary. The paper's default is 2ms.
	Slice time.Duration

	// SlackRatio is how far an entity's cumulative usage fraction may exceed
	// its share before a penalty is imposed. A small slack avoids penalty
	// flapping when an entity sits exactly at its share.
	SlackRatio float64

	// BanCap bounds a single penalty. Zero means DefaultBanCap. It protects
	// against one pathological critical section banning its thread for an
	// unbounded period.
	BanCap time.Duration

	// JoinCredit bounds how much cumulative usage deficit a newly registered
	// (or long-idle, re-registered) entity may carry: at registration its
	// usage is floored so its deficit is at most JoinCredit. Without the
	// floor a latecomer could monopolize the lock for as long as the
	// incumbents have been running. Zero means DefaultJoinCredit.
	JoinCredit time.Duration

	// InactiveTimeout, when positive, is how long an entity may go without
	// acquiring the lock before Expire removes it from the accounting
	// (k-SCL's inactive-thread GC, paper §4.4; the paper uses 1s).
	InactiveTimeout time.Duration
}

// Defaults mirroring the paper's configuration.
const (
	DefaultSlice      = 2 * time.Millisecond
	DefaultSlackRatio = 0.01
	DefaultBanCap     = 30 * time.Second
	DefaultJoinCredit = 100 * time.Millisecond
	// rescaleLimit keeps cumulative usage counters bounded; ratios are
	// preserved when all counters are halved.
	rescaleLimit = time.Duration(1) << 40 // ~18 minutes
)

func (p Params) withDefaults() Params {
	if p.SlackRatio == 0 {
		p.SlackRatio = DefaultSlackRatio
	}
	if p.BanCap == 0 {
		p.BanCap = DefaultBanCap
	}
	if p.JoinCredit == 0 {
		p.JoinCredit = DefaultJoinCredit
	}
	return p
}

// Entity is one registered entity's books. Lookup and Register hand out
// a pointer to them that stays valid until the entity is unregistered, so
// an enclosing lock can look an entity up once per transition and pass
// the pointer to the entry-keyed methods (AcquireEntry, ReleaseEntry,
// StartSliceEntry). The id-keyed methods are thin wrappers over them.
type Entity struct {
	id          ID
	weight      int64
	usage       time.Duration // cumulative lock hold time (rescaled)
	sliceUsage  time.Duration // hold time within the current slice ownership
	holdStart   time.Duration
	holding     bool
	bannedUntil time.Duration
	lastActive  time.Duration
	registered  bool
}

// Release is the decision returned when an entity releases the lock.
type Release struct {
	// SliceExpired reports that the owner's slice is over and lock ownership
	// must transfer to the next waiting entity.
	SliceExpired bool
	// Penalty is the ban to impose on this entity's next acquire attempt
	// (zero if the entity is at or below its allotted usage ratio).
	Penalty time.Duration
	// Hold is the duration of the critical section that just ended.
	Hold time.Duration
	// SliceUse is the hold time the owner accumulated within the slice
	// that just expired (set only when SliceExpired; used by tracing).
	SliceUse time.Duration
}

// Accountant tracks lock usage per entity and makes the SCL fairness
// decisions: when a slice expires, and how long an over-user must be banned
// so that every active entity receives lock opportunity proportional to its
// weight. All times are caller-provided nanosecond timestamps on a single
// monotonic clock.
type Accountant struct {
	params      Params
	entities    map[ID]*Entity
	totalWeight int64
	grandUsage  time.Duration // Σ usage over registered entities

	sliceOwner ID
	sliceStart time.Duration
	hasOwner   bool
}

// NewAccountant returns an Accountant with the given parameters
// (zero-valued fields take the documented defaults).
func NewAccountant(p Params) *Accountant {
	return &Accountant{
		params:   p.withDefaults(),
		entities: make(map[ID]*Entity),
	}
}

// Params returns the effective (defaulted) parameters.
func (a *Accountant) Params() Params { return a.params }

// Register adds an entity with the given weight to the accounting, or
// updates its weight if already present, and returns its books. A new or
// returning entity is granted at most JoinCredit of usage deficit so it
// cannot monopolize the lock to "catch up" on an arbitrarily long past.
func (a *Accountant) Register(id ID, weight int64, now time.Duration) *Entity {
	check.Point("acct.register")
	if weight <= 0 {
		panic(fmt.Sprintf("core: entity %d registered with non-positive weight %d", id, weight))
	}
	if e, ok := a.entities[id]; ok {
		a.totalWeight += weight - e.weight
		e.weight = weight
		e.lastActive = now
		return e
	}
	e := &Entity{id: id, weight: weight, lastActive: now, registered: true}
	a.entities[id] = e
	a.totalWeight += weight
	// Floor the newcomer's usage so its deficit versus its fair share of the
	// historical total is bounded by JoinCredit.
	if fair := a.fairUsage(e); fair > a.params.JoinCredit {
		e.usage = fair - a.params.JoinCredit
		a.grandUsage += e.usage
		// The floor can add up to the incumbent grand total; without a
		// rescale check here, a burst of high-weight registrations could
		// grow the counters without bound (found by FuzzAccountant).
		if a.grandUsage > rescaleLimit {
			a.rescale()
		}
	}
	return e
}

// Unregister removes an entity (thread exit). Its history leaves the
// books so remaining shares are computed over live entities only.
func (a *Accountant) Unregister(id ID) {
	e, ok := a.entities[id]
	if !ok {
		return
	}
	a.totalWeight -= e.weight
	a.grandUsage -= e.usage
	delete(a.entities, id)
	if a.hasOwner && a.sliceOwner == id {
		a.hasOwner = false
	}
}

// Lookup returns id's books, or nil when id is not registered.
func (a *Accountant) Lookup(id ID) *Entity { return a.entities[id] }

// Registered reports whether id is currently tracked.
func (a *Accountant) Registered(id ID) bool { return a.Lookup(id) != nil }

// Len returns the number of tracked entities.
func (a *Accountant) Len() int { return len(a.entities) }

// Share returns the entity's proportional share of lock opportunity,
// weight_i / Σ weight over registered entities.
func (a *Accountant) Share(id ID) float64 {
	e, ok := a.entities[id]
	if !ok || a.totalWeight == 0 {
		return 0
	}
	return float64(e.weight) / float64(a.totalWeight)
}

// fairUsage is the usage entity e would have if the historical total had
// been divided exactly by weight.
func (a *Accountant) fairUsage(e *Entity) time.Duration {
	if a.totalWeight == 0 {
		return 0
	}
	return time.Duration(float64(a.grandUsage) * float64(e.weight) / float64(a.totalWeight))
}

// StartSlice makes id the slice owner beginning at now. The enclosing lock
// calls this when ownership transfers (or on first acquisition).
func (a *Accountant) StartSlice(id ID, now time.Duration) {
	a.StartSliceEntry(id, a.Lookup(id), now)
}

// StartSliceEntry is StartSlice with id's books already looked up: e is
// Lookup(id), nil when id is not (yet) registered.
func (a *Accountant) StartSliceEntry(id ID, e *Entity, now time.Duration) {
	a.sliceOwner = id
	a.sliceStart = now
	a.hasOwner = true
	if e != nil {
		e.sliceUsage = 0
	}
}

// SliceOwner returns the current slice owner, if any.
func (a *Accountant) SliceOwner() (ID, bool) { return a.sliceOwner, a.hasOwner }

// ClearSlice removes slice ownership (the lock went wholly idle).
func (a *Accountant) ClearSlice() { a.hasOwner = false }

// SliceEnd returns when the current slice expires (start + slice length).
// Meaningless when there is no owner.
func (a *Accountant) SliceEnd() time.Duration { return a.sliceStart + a.params.Slice }

// SliceExpired reports whether the current slice has run past its length at
// time now. With no owner it reports true.
func (a *Accountant) SliceExpired(now time.Duration) bool {
	if !a.hasOwner {
		return true
	}
	return now-a.sliceStart >= a.params.Slice
}

// OnAcquire records that id acquired the lock at now. Entities acquiring a
// lock they never registered for are auto-registered at the reference
// weight (matching u-SCL's lazy per-thread allocation).
func (a *Accountant) OnAcquire(id ID, now time.Duration) {
	a.AcquireEntry(id, a.Lookup(id), now)
}

// AcquireEntry is OnAcquire with id's books already looked up: e is
// Lookup(id), and nil auto-registers id. It returns the books it charged.
func (a *Accountant) AcquireEntry(id ID, e *Entity, now time.Duration) *Entity {
	if e == nil {
		e = a.Register(id, ReferenceWeight, now)
	}
	e.holding = true
	e.holdStart = now
	e.lastActive = now
	return e
}

// OnRelease records that id released the lock at now and returns the SCL
// decision: whether the slice expired (ownership must transfer) and the
// penalty, if any, to impose on this entity's next acquire attempt.
//
// The penalty implements the paper's rule (§4.2): it is computed at
// release, imposed at next acquire, and only applied to entities whose
// cumulative usage fraction exceeds their allotted share. Its magnitude
// makes the just-ended ownership window average out to the entity's share:
// after using the lock for U, the entity stays away for U/share − U.
func (a *Accountant) OnRelease(id ID, now time.Duration) Release {
	return a.ReleaseEntry(a.Lookup(id), now)
}

// ReleaseEntry is OnRelease with the releasing entity's books already
// looked up (nil: not registered, an empty Release).
func (a *Accountant) ReleaseEntry(e *Entity, now time.Duration) Release {
	check.Point("acct.release")
	if e == nil || !e.holding {
		return Release{}
	}
	hold := now - e.holdStart
	if hold < 0 {
		hold = 0
	}
	e.holding = false
	e.lastActive = now
	e.usage += hold
	a.grandUsage += hold
	owner := a.hasOwner && a.sliceOwner == e.id
	if owner {
		e.sliceUsage += hold
	}
	rel := Release{Hold: hold}
	if !a.SliceExpired(now) {
		return rel
	}
	rel.SliceExpired = true
	if owner {
		rel.SliceUse = e.sliceUsage
	}
	rel.Penalty = a.penalty(e)
	if rel.Penalty > 0 {
		e.bannedUntil = now + rel.Penalty
	}
	if a.grandUsage > rescaleLimit {
		a.rescale()
	}
	return rel
}

// FoldSliceUsage charges id a batch of deferred lock usage in one step:
// the wall-clock window during which its live slice kept the lock via the
// enclosing lock's atomic fast path (paper §4.2 — the slice owner
// re-acquires with a single atomic update and accounting is deferred to
// slice boundaries). The batch lands in the entity's cumulative usage, the
// grand total, and the running slice's usage (so the penalty decision at
// the coming slice end sees it), exactly as if it had been accumulated by
// per-operation OnAcquire/OnRelease pairs.
func (a *Accountant) FoldSliceUsage(id ID, usage time.Duration, now time.Duration) {
	check.Point("acct.fold")
	if usage <= 0 {
		return
	}
	e, ok := a.entities[id]
	if !ok {
		return
	}
	e.usage += usage
	a.grandUsage += usage
	e.lastActive = now
	if a.hasOwner && a.sliceOwner == id {
		e.sliceUsage += usage
	}
	if a.grandUsage > rescaleLimit {
		a.rescale()
	}
}

// penalty computes the ban for an entity whose slice just expired.
func (a *Accountant) penalty(e *Entity) time.Duration {
	return a.windowPenalty(e, e.sliceUsage)
}

// windowPenalty is the paper's §4.2 penalty rule for an ownership window
// of the given length: an entity whose cumulative usage fraction exceeds
// its share stays away for window/share − window, so the window averages
// out to the share. Shared by the slice-boundary path (window = slice
// usage) and ChargeWindow (window = one externally measured hold).
func (a *Accountant) windowPenalty(e *Entity, window time.Duration) time.Duration {
	if a.grandUsage <= 0 || a.totalWeight <= 0 {
		return 0
	}
	share := float64(e.weight) / float64(a.totalWeight)
	if share >= 1 {
		return 0 // lone entity: the lock is all theirs
	}
	ratio := float64(e.usage) / float64(a.grandUsage)
	if ratio <= share+a.params.SlackRatio {
		return 0 // at or under its allotment: no penalty (paper §4.2)
	}
	if window <= 0 {
		return 0
	}
	pen := time.Duration(float64(window)/share) - window
	if pen > a.params.BanCap {
		pen = a.params.BanCap
	}
	if pen < 0 {
		pen = 0
	}
	return pen
}

// ChargeWindow books one externally measured ownership window for id in
// k-SCL style: the window is accrued into the entity's cumulative usage
// and the grand total, and — every charge being a slice boundary, as in a
// zero-length-slice lock — the penalty decision is made immediately with
// the window itself as the slice usage. The returned penalty has already
// been imposed on the entity's books (BannedUntil); the caller enforces
// it on the entity's next acquire attempt, exactly like Release.Penalty.
//
// Unlike OnRelease, bans stack: an entity may own several windows
// concurrently (a tenant holding many locks of a table), so a fresh
// penalty extends an outstanding ban rather than resetting it — the
// stayaway owed for each window is served in full.
//
// Entities never registered (or already reaped) are ignored: the caller
// owns registration, and charging a ghost would corrupt the grand total.
func (a *Accountant) ChargeWindow(id ID, window, now time.Duration) time.Duration {
	check.Point("acct.charge")
	e, ok := a.entities[id]
	if !ok || window <= 0 {
		return 0
	}
	e.usage += window
	a.grandUsage += window
	e.lastActive = now
	pen := a.windowPenalty(e, window)
	if pen > 0 {
		base := now
		if e.bannedUntil > base {
			base = e.bannedUntil
		}
		e.bannedUntil = base + pen
	}
	if a.grandUsage > rescaleLimit {
		a.rescale()
	}
	return pen
}

// Charge is one entity's share of a combined batch: the critical-section
// time the combiner measured while executing the entity's closure.
type Charge struct {
	ID    ID
	Usage time.Duration
}

// FoldBatch books a batch of combiner-measured critical sections in one
// step: each charge lands in its entity's cumulative usage and the grand
// total exactly as if the entity had acquired and released itself, and —
// combining executions being ownership windows outside any slice the
// entity owns — the penalty decision for each is made immediately,
// ChargeWindow-style, with the measured window as the slice usage.
// Returned penalties align with charges and have already been imposed on
// the books (stacking, like ChargeWindow: combined windows of one entity
// may land in quick succession and each stayaway is served in full); the
// caller enforces them on the entity's next acquire attempt and reports
// them to tracing. Charges for entities never registered (or already
// reaped mid-wait) are skipped and return a zero penalty — the caller
// owns registration, and charging a ghost would corrupt the grand total.
func (a *Accountant) FoldBatch(charges []Charge, now time.Duration) []time.Duration {
	check.Point("acct.foldbatch")
	pens := make([]time.Duration, len(charges))
	for i, c := range charges {
		e, ok := a.entities[c.ID]
		if !ok || c.Usage <= 0 {
			continue
		}
		e.usage += c.Usage
		a.grandUsage += c.Usage
		e.lastActive = now
		pen := a.windowPenalty(e, c.Usage)
		if pen > 0 {
			base := now
			if e.bannedUntil > base {
				base = e.bannedUntil
			}
			e.bannedUntil = base + pen
		}
		pens[i] = pen
	}
	if a.grandUsage > rescaleLimit {
		a.rescale()
	}
	return pens
}

// BannedUntil returns the absolute time until which id is banned from
// acquiring (zero if not banned).
func (a *Accountant) BannedUntil(id ID) time.Duration { return a.Lookup(id).BannedUntil() }

// BannedUntil returns the absolute time until which the entity is banned
// from acquiring (zero if not banned, or e is nil).
func (e *Entity) BannedUntil() time.Duration {
	if e == nil {
		return 0
	}
	return e.bannedUntil
}

// Banned reports whether id is banned at time now.
func (a *Accountant) Banned(id ID, now time.Duration) bool {
	return a.BannedUntil(id) > now
}

// Usage returns the entity's cumulative (rescaled) lock hold time.
func (a *Accountant) Usage(id ID) time.Duration {
	if e, ok := a.entities[id]; ok {
		return e.usage
	}
	return 0
}

// GrandUsage returns the cumulative (rescaled) hold time over all
// registered entities.
func (a *Accountant) GrandUsage() time.Duration { return a.grandUsage }

// Expired describes one entity removed by ExpireInactive: its ID and how
// long it had been idle when reaped.
type Expired struct {
	ID   ID
	Idle time.Duration
}

// Expire removes entities that have not touched the lock since
// now − InactiveTimeout (k-SCL's GC of stale per-thread state). It is a
// no-op when InactiveTimeout is zero or for entities currently holding,
// owning the slice, or still banned. It returns the IDs removed.
func (a *Accountant) Expire(now time.Duration) []ID {
	exp := a.ExpireInactive(now, nil)
	if exp == nil {
		return nil
	}
	gone := make([]ID, len(exp))
	for i, e := range exp {
		gone[i] = e.ID
	}
	return gone
}

// ExpireInactive is Expire with a caller veto: entities for which keep
// returns true survive the sweep even when stale (the enclosing lock uses
// this to protect entities that are sitting in its waiter queue, whose
// lastActive legitimately predates a long wait). A nil keep vetoes
// nothing. Entities currently holding, owning the slice, or still banned
// are always kept: reaping a banned entity would let it re-register
// through the join-credit floor and launder the remainder of its penalty.
func (a *Accountant) ExpireInactive(now time.Duration, keep func(ID) bool) []Expired {
	check.Point("acct.expire")
	if a.params.InactiveTimeout <= 0 {
		return nil
	}
	var gone []Expired
	for id, e := range a.entities {
		if e.holding || (a.hasOwner && a.sliceOwner == id) || e.bannedUntil > now {
			continue
		}
		idle := now - e.lastActive
		if idle < a.params.InactiveTimeout {
			continue
		}
		if keep != nil && keep(id) {
			continue
		}
		gone = append(gone, Expired{ID: id, Idle: idle})
	}
	for _, g := range gone {
		a.Unregister(g.ID)
	}
	return gone
}

// Holding reports whether id is currently inside a critical section
// according to the accounting (between OnAcquire and OnRelease).
func (a *Accountant) Holding(id ID) bool { return a.Lookup(id).Holding() }

// Holding reports whether the entity is inside a critical section
// according to the accounting (false when e is nil).
func (e *Entity) Holding() bool { return e != nil && e.holding }

// TotalWeight returns Σ weight over registered entities.
func (a *Accountant) TotalWeight() int64 { return a.totalWeight }

// CheckInvariants verifies the accountant's internal bookkeeping and
// returns the first violation found, or nil. The invariants: totalWeight
// and grandUsage equal the sums over registered entities, no entity
// carries a non-positive weight or negative usage, and a live slice owner
// is a registered entity. It is O(n) and meant for debug builds (the
// scldebug checks in the real locks) and tests, at quiescent points —
// not mid-operation.
func (a *Accountant) CheckInvariants() error {
	var tw int64
	var gu time.Duration
	for id, e := range a.entities {
		if e.weight <= 0 {
			return fmt.Errorf("core: entity %d has non-positive weight %d", id, e.weight)
		}
		if e.usage < 0 {
			return fmt.Errorf("core: entity %d has negative usage %v", id, e.usage)
		}
		tw += e.weight
		gu += e.usage
	}
	if tw != a.totalWeight {
		return fmt.Errorf("core: totalWeight %d != Σ weights %d (stale weight)", a.totalWeight, tw)
	}
	if gu != a.grandUsage {
		return fmt.Errorf("core: grandUsage %v != Σ usage %v", a.grandUsage, gu)
	}
	if a.hasOwner {
		if _, ok := a.entities[a.sliceOwner]; !ok {
			return fmt.Errorf("core: slice owner %d is not registered", a.sliceOwner)
		}
	}
	return nil
}

// rescale halves every usage counter; fractions (and hence all future
// penalty decisions) are unchanged, but the counters stay bounded over
// arbitrarily long runs.
func (a *Accountant) rescale() {
	a.grandUsage = 0
	for _, e := range a.entities {
		e.usage /= 2
		a.grandUsage += e.usage
	}
}
