package scl

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scl/internal/check"
	"scl/internal/core"
	"scl/internal/metrics"
)

// Manager is a keyed lock table: it maps arbitrary string keys to
// lazily-materialized SCL locks (k-SCL by default, u-SCL with a
// positive ManagerOptions.Lock.Slice, RW-SCL with ManagerOptions.RW)
// and extends the paper's per-lock opportunity guarantee to the whole
// table. The scheduler-subversion problem the paper solves for one
// lock reappears across a lock table — a tenant hammering a million
// cold keys, or many goroutines on a few hot ones,
// can monopolize the service even though no single lock is abused — so
// the Manager accounts at two levels:
//
//   - Per key, each materialized lock runs the full SCL machinery with
//     entity = tenant: a tenant's goroutines on one key share one
//     accounted entity (one seed handle per tenant per key), so on
//     every hot key lock opportunity is divided by tenant weight
//     exactly as in §3.
//     The key locks default to k-SCL, as the paper's kernel lock does
//     (§4.4): a table is shared by many tenants with short holds, and a
//     key slice that outlives a hold makes every other tenant queued on
//     the key wait it out after the key is released.
//   - Per stripe, the Manager keeps tenant books — a core.Accountant
//     driven in k-SCL style (Accountant.ChargeWindow): every completed
//     grant books its wall-clock hold window against the tenant, every
//     release is a slice boundary, and the resulting penalty is slept
//     out at the tenant's next acquire on that stripe. One accountant
//     identity per tenant per stripe makes a tenant's opportunity
//     proportional table-wide, not merely per key.
//
// The table is striped: a key hashes (FNV-1a, deterministic across
// processes so checker replays are stable) to one of a power-of-two
// number of stripes, each with its own mutex, key map and tenant books,
// so key lookup itself never becomes the new subversion point — stripe
// critical sections are O(1) map operations, and blocking (ban sleeps,
// the key lock's queue) always happens outside the stripe mutex.
//
// Boundedness under millions of distinct keys reuses the §4.4
// inactive-GC machinery at both levels: idle key locks are reaped
// (ManagerOptions.LockIdle) and idle tenant identities expire from the
// stripe books (ManagerOptions.TenantIdle), both lazily, piggybacked on
// releases and rate-limited — no background goroutine. Stripe books
// survive a lock reap, so a reaped-and-rematerialized key sees
// unchanged tenant accounting.
//
// Key locks keep no statistics: Stats, read from the stripe books, is
// the only view of a table, and no key lock is exposed, so a mutex key
// lock is built without the per-entity stats a standalone Mutex keeps —
// no stats map, reservoirs, hold integral or wait sample per grant. Its
// accountant, which makes the key's grant decisions, is unchanged. The
// one event that took a label from those stats is the per-key entity
// reap (Lock.InactiveTimeout, traced through Lock.Tracer); a key lock
// names the reaped tenant by the name its seed handle was registered
// under, which the seed's entity keeps.
type Manager struct {
	opts    ManagerOptions
	mask    uint64
	stripes []stripe
}

// ManagerOptions configure a Manager.
type ManagerOptions struct {
	// Stripes is the number of internal stripes (rounded up to a power of
	// two; zero means DefaultStripes). More stripes reduce contention on
	// the table itself; tenant fairness is enforced per stripe, so very
	// high stripe counts trade table-wide accounting precision for
	// lookup scalability.
	Stripes int
	// RW selects RW-SCL (reader-writer) locks for every key in the table;
	// acquire through Tenant.RLock/WLock. The default is SCL mutexes
	// (k-SCL unless Lock.Slice is positive), acquired through Tenant.Lock.
	RW bool
	// ReadWeight and WriteWeight are the RW-SCL class weights used when RW
	// is set (zero means 1:1).
	ReadWeight, WriteWeight int64
	// Lock configures each materialized per-key lock (slice length, ban
	// cap, per-key inactive-entity GC, tracer). Options.Name is ignored:
	// each lock is named after its key. On a mutex table a zero (or
	// negative) Lock.Slice means k-SCL keys: a zero-length slice, so the
	// key passes to the next queued tenant at every release and there
	// is no owner fast path. That differs from a standalone Mutex, where
	// zero means DefaultSlice. A positive Lock.Slice gives u-SCL keys
	// with that slice. For RW tables, Lock.Slice is the phase period
	// (zero means DefaultSlice).
	Lock Options
	// LockIdle, when positive, reaps key locks idle (no grant in flight,
	// no acquisition) for at least this long, keeping the table bounded
	// under key churn. The reap is lazy and rate-limited; a reaped key is
	// re-materialized on next use with fresh per-key accounting but
	// unchanged stripe-level tenant books.
	LockIdle time.Duration
	// TenantIdle, when positive, expires tenant identities from a
	// stripe's books after this much inactivity on that stripe (the §4.4
	// GC applied to tenants). Tenants with grants in flight or unserved
	// bans are never expired; an expired tenant that returns re-registers
	// through the join-credit floor, so idling cannot launder a penalty.
	TenantIdle time.Duration
	// Name labels the manager in metrics export.
	Name string
}

// DefaultStripes is the default stripe count for a Manager.
const DefaultStripes = 32

// ManagerOption is a functional override applied on top of a
// ManagerOptions value, mirroring Option for single locks.
type ManagerOption func(*ManagerOptions)

// WithStripes overrides the stripe count (rounded up to a power of two).
func WithStripes(n int) ManagerOption {
	return func(o *ManagerOptions) { o.Stripes = n }
}

// WithLockGC enables key-lock reaping: locks idle for the threshold are
// dismantled and their keys forgotten until next use (ManagerOptions.
// LockIdle). A non-positive threshold disables it (the default).
func WithLockGC(threshold time.Duration) ManagerOption {
	return func(o *ManagerOptions) { o.LockIdle = threshold }
}

// WithTenantGC enables tenant-identity expiry in the stripe books
// (ManagerOptions.TenantIdle). A non-positive threshold disables it
// (the default).
func WithTenantGC(threshold time.Duration) ManagerOption {
	return func(o *ManagerOptions) { o.TenantIdle = threshold }
}

// stripe is one shard of the table: its own mutex, key map, tenant
// books and per-tenant records. All fields are guarded by mu (taken
// through the checkhooks seam).
type stripe struct {
	mu       sync.Mutex
	books    *core.Accountant // tenant-level accounting, k-SCL style
	keys     map[string]*managedLock
	stats    map[core.ID]*tenantStat
	nextReap time.Duration

	materialized  int64
	locksReaped   int64
	tenantsReaped int64
}

// managedLock is one materialized key: the underlying SCL lock plus, on
// a mutex table, each tenant's seed handle on it. A seed holds the
// tenant's registration on the key lock, and every grant locks through
// a copy of it: the copy shares the seed's id and entityRef, so all of
// a tenant's goroutines on the key are one accounted entity (paper §6).
// Copies are never closed. A copy is not counted in the entityRef's open
// handles, so closing one would unregister the entity under the seed
// and its other copies; the seed's Close stands for all of them. It
// runs only once no copy can be in flight: when a closed tenant's last
// grant on the stripe ends (dropTenantLocked). The key reap closes
// nothing: it drops the whole lock, which no grant references then.
type managedLock struct {
	key      string
	mu       *Mutex  // mutex tables
	rw       *RWLock // RW-SCL tables
	seeds    map[core.ID]*Handle
	inflight int           // grants in flight on this key
	lastUsed time.Duration // last grant or release touch
}

// tenantStat is a tenant's record on one stripe: its counters and its
// grants in flight.
type tenantStat struct {
	name     string
	weight   int64
	grants   int64
	hold     time.Duration
	bans     int64
	banTime  time.Duration
	lastAt   time.Duration
	inflight int // grants in flight on the stripe (reap veto)
}

// managerTenantIDs allocates tenant identities; one Tenant carries the
// same ID into every stripe's books.
var managerTenantIDs atomic.Int64

// NewManager builds a Manager from opts, with extra functional options
// applied on top.
func NewManager(opts ManagerOptions, extra ...ManagerOption) *Manager {
	for _, fn := range extra {
		fn(&opts)
	}
	n := opts.Stripes
	if n <= 0 {
		n = DefaultStripes
	}
	// Round up to a power of two so stripeOf is a mask, not a modulo.
	p := 1
	for p < n {
		p <<= 1
	}
	m := &Manager{opts: opts, mask: uint64(p - 1), stripes: make([]stripe, p)}
	bp := core.Params{
		BanCap:          opts.Lock.BanCap,
		InactiveTimeout: opts.TenantIdle,
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		s.books = core.NewAccountant(bp)
		s.keys = make(map[string]*managedLock)
		s.stats = make(map[core.ID]*tenantStat)
	}
	return m
}

// Name returns the manager's configured metrics label.
func (m *Manager) Name() string { return m.opts.Name }

// Stripes returns the effective (power-of-two) stripe count.
func (m *Manager) Stripes() int { return len(m.stripes) }

// fnv1a is the 64-bit FNV-1a hash: fixed and process-independent, so a
// replayed checker seed assigns every key to the same stripe.
func fnv1a(key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func (m *Manager) stripeOf(key string) *stripe {
	return &m.stripes[fnv1a(key)&m.mask]
}

// Tenant registers a schedulable entity with the table: every key the
// tenant touches accounts it under one identity, and the manager's
// stripe books give it table-wide lock opportunity proportional to
// weight. Call Close when the tenant departs so its weight leaves the
// books at once rather than waiting for the TenantIdle GC.
func (m *Manager) Tenant(name string, weight int64) *Tenant {
	if weight <= 0 {
		panic(fmt.Sprintf("scl: tenant %q registered with non-positive weight %d", name, weight))
	}
	return &Tenant{
		m:      m,
		id:     core.ID(managerTenantIDs.Add(1)),
		name:   name,
		weight: weight,
	}
}

// TenantNice is Tenant with the weight given as a CFS nice value
// (nice 0 → weight 1024), mirroring Mutex.RegisterNice.
func (m *Manager) TenantNice(name string, nice int) *Tenant {
	return m.Tenant(name, NiceToWeight(nice))
}

// Tenant is a registered table identity. All methods are safe for
// concurrent use by any number of the tenant's goroutines; they share
// one set of accounting books. Acquire with Lock (mutex tables) or
// RLock/WLock (RW tables) and release through the returned Grant.
type Tenant struct {
	m      *Manager
	id     core.ID
	name   string
	weight int64
	closed atomic.Bool
}

// ID returns the tenant's table-wide accounting identity.
func (t *Tenant) ID() int64 { return int64(t.id) }

// Name returns the tenant's label.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's scheduling weight.
func (t *Tenant) Weight() int64 { return t.weight }

// Grant is one held key lock. Unlock releases the key and books the
// hold window against the tenant's stripe accounts; a Grant must be
// released exactly once, by any goroutine.
type Grant struct {
	t     *Tenant
	s     *stripe
	st    *tenantStat // the tenant's record on s, kept while in flight
	ml    *managedLock
	mode  int
	start time.Duration
	// h is a mutex grant's copy of the tenant's seed on the key (zero
	// for RW grants). It is never closed: see managedLock.
	h Handle
}

const (
	modeLock = iota
	modeRLock
	modeWLock
)

// Lock acquires the key's SCL mutex (k-SCL unless the table's
// Lock.Slice is positive) on behalf of the tenant, blocking through any
// table-level ban (the penalty for past over-use on this stripe) and
// then through the key lock's own SCL discipline. It panics on an RW
// table or a closed tenant.
func (t *Tenant) Lock(key string) *Grant {
	g, _ := t.acquire(nil, key, modeLock)
	return g
}

// LockContext is Lock bounded by a context: cancellation interrupts
// both the table-level ban sleep and the key lock's queue, and the key
// is not held on error.
func (t *Tenant) LockContext(ctx context.Context, key string) (*Grant, error) {
	return t.acquire(ctx, key, modeLock)
}

// RLock acquires the key's RW-SCL for reading (RW tables only).
func (t *Tenant) RLock(key string) *Grant {
	g, _ := t.acquire(nil, key, modeRLock)
	return g
}

// RLockContext is RLock bounded by a context.
func (t *Tenant) RLockContext(ctx context.Context, key string) (*Grant, error) {
	return t.acquire(ctx, key, modeRLock)
}

// WLock acquires the key's RW-SCL for writing (RW tables only).
func (t *Tenant) WLock(key string) *Grant {
	g, _ := t.acquire(nil, key, modeWLock)
	return g
}

// WLockContext is WLock bounded by a context.
func (t *Tenant) WLockContext(ctx context.Context, key string) (*Grant, error) {
	return t.acquire(ctx, key, modeWLock)
}

func (t *Tenant) acquire(ctx context.Context, key string, mode int) (*Grant, error) {
	m := t.m
	if t.closed.Load() {
		panic("scl: operation on closed Tenant")
	}
	if (mode == modeLock) == m.opts.RW {
		if m.opts.RW {
			panic("scl: Lock on an RW Manager (use RLock/WLock)")
		}
		panic("scl: RLock/WLock on a mutex Manager (use Lock)")
	}
	var done <-chan struct{}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		done = ctx.Done()
	}
	s := m.stripeOf(key)
	check.Point("mgr.stripe")
	// Serve any outstanding table-level ban before touching the key: the
	// stripe books' penalty is imposed at acquire, exactly like the
	// single-lock rule (§4.2), and the sleep happens outside the stripe
	// mutex so banned tenants never block the table.
	var now time.Duration
	var st *tenantStat
	for {
		lockMutex(&s.mu)
		now = monotime()
		st = s.ensureTenantLocked(t, now)
		until := s.books.BannedUntil(t.id)
		if until <= now {
			break // proceed, still holding s.mu
		}
		unlockMutex(&s.mu)
		if sleepBan(until-now, done) {
			return nil, ctx.Err()
		}
	}
	// The ban check's clock reading serves the rest of this stripe hold.
	ml := s.keys[key]
	if ml == nil {
		ml = s.materializeLocked(m, key, now)
	}
	ml.lastUsed = now
	ml.inflight++
	st.inflight++
	g := &Grant{t: t, s: s, st: st, ml: ml, mode: mode}
	if mode == modeLock {
		g.h = *ml.seedLocked(t)
	}
	unlockMutex(&s.mu)
	// Block on the key lock outside the stripe mutex: the key's queue and
	// slice discipline must never serialize unrelated keys of the stripe.
	var err error
	switch mode {
	case modeLock:
		if ctx == nil {
			g.h.Lock()
		} else {
			err = g.h.LockContext(ctx)
		}
	case modeRLock:
		if ctx == nil {
			ml.rw.RLock()
		} else {
			err = ml.rw.RLockContext(ctx)
		}
	case modeWLock:
		if ctx == nil {
			ml.rw.WLock()
		} else {
			err = ml.rw.WLockContext(ctx)
		}
	}
	if err != nil {
		lockMutex(&s.mu)
		ml.inflight--
		st.inflight--
		s.settleClosedLocked(t, st)
		unlockMutex(&s.mu)
		return nil, err
	}
	g.start = monotime()
	return g, nil
}

// Unlock releases the granted key lock and books the grant's wall-clock
// hold window against the tenant's stripe accounts (Accountant.
// ChargeWindow): if the window pushed the tenant past its table-wide
// share, the resulting ban is served at the tenant's next acquire on
// this stripe. Each concurrent grant books its own window — a tenant
// holding many keys at once pays for each of them.
func (g *Grant) Unlock() {
	if g.ml == nil {
		panic("scl: Unlock of a released Grant")
	}
	now := monotime()
	hold := now - g.start
	if hold < 0 {
		hold = 0
	}
	switch g.mode {
	case modeLock:
		g.h.Unlock()
	case modeRLock:
		g.ml.rw.RUnlock()
	case modeWLock:
		g.ml.rw.WUnlock()
	}
	check.Point("mgr.release")
	s, t, st := g.s, g.t, g.st
	lockMutex(&s.mu)
	g.ml.inflight--
	g.ml.lastUsed = now
	st.inflight--
	pen := s.books.ChargeWindow(t.id, hold, now)
	st.grants++
	st.hold += hold
	st.lastAt = now
	if pen > 0 {
		st.bans++
		st.banTime += pen
	}
	s.maybeReapLocked(t.m, now)
	s.settleClosedLocked(t, st)
	unlockMutex(&s.mu)
	*g = Grant{}
}

// Close unregisters the tenant from every stripe: its seed handles
// close, its weight leaves the books, and survivors' shares grow
// immediately. On a stripe where grants are still in flight they
// complete normally, and the last one to end settles the tenant's state
// there; new acquisitions panic. Close is idempotent and safe to call
// while the tenant's releases are racing.
func (t *Tenant) Close() {
	if t.closed.Swap(true) {
		return
	}
	check.Point("mgr.close")
	m := t.m
	for i := range m.stripes {
		s := &m.stripes[i]
		lockMutex(&s.mu)
		if st := s.stats[t.id]; st == nil || st.inflight == 0 {
			s.dropTenantLocked(t.id)
		}
		unlockMutex(&s.mu)
	}
}

// ensureTenantLocked (re-)registers the tenant in the stripe books —
// cheap when already present (a weight refresh) — and returns its
// record, created if missing.
func (s *stripe) ensureTenantLocked(t *Tenant, now time.Duration) *tenantStat {
	s.books.Register(t.id, t.weight, now)
	st := s.stats[t.id]
	if st == nil {
		st = &tenantStat{name: t.name, weight: t.weight}
		s.stats[t.id] = st
	}
	st.lastAt = now
	return st
}

// settleClosedLocked drops a closed tenant's stripe state once its last
// grant on the stripe has ended; st is the tenant's record.
func (s *stripe) settleClosedLocked(t *Tenant, st *tenantStat) {
	if st.inflight == 0 && t.closed.Load() {
		s.dropTenantLocked(t.id)
	}
}

// dropTenantLocked removes a closed tenant's stripe state once nothing
// is in flight: its seeds on the stripe's keys close, and its weight and
// record leave the books. An unserved ban dies with the identity: the
// tenant is gone, and a successor registers under a fresh ID through the
// join-credit floor, so the departure cannot be farmed.
func (s *stripe) dropTenantLocked(id core.ID) {
	for _, ml := range s.keys {
		if h := ml.seeds[id]; h != nil {
			h.Close()
			delete(ml.seeds, id)
		}
	}
	s.books.Unregister(id)
	delete(s.stats, id)
}

// materializeLocked creates the key's lock on first use. Per-key
// accounting starts fresh; the stripe-level tenant books are untouched,
// so materialization (like re-materialization after a reap) never
// changes anyone's table-wide standing.
func (s *stripe) materializeLocked(m *Manager, key string, now time.Duration) *managedLock {
	check.Point("mgr.materialize")
	ml := &managedLock{key: key, lastUsed: now}
	lo := m.opts.Lock
	lo.Name = key
	if m.opts.RW {
		var ro []Option
		if lo.InactiveTimeout > 0 {
			ro = append(ro, WithInactiveGC(lo.InactiveTimeout))
		}
		ml.rw = NewRWLock(m.opts.ReadWeight, m.opts.WriteWeight, lo.sliceLen(), append(ro, WithName(key))...)
		if lo.Tracer != nil {
			ml.rw.SetTracer(lo.Tracer)
		}
	} else {
		if lo.Slice == 0 {
			lo.Slice = -1 // k-SCL keys: see ManagerOptions.Lock
		}
		ml.mu = newMutex(lo, false) // key locks keep no statistics
		ml.seeds = make(map[core.ID]*Handle)
	}
	s.keys[key] = ml
	s.materialized++
	return ml
}

// seedLocked returns the tenant's seed handle on this key, registering
// the tenant with the key lock on first touch.
func (ml *managedLock) seedLocked(t *Tenant) *Handle {
	h := ml.seeds[t.id]
	if h == nil {
		h = ml.mu.register(t.weight, t.name)
		ml.seeds[t.id] = h
	}
	return h
}

// maybeReapLocked runs the lazy, rate-limited GC sweep of one stripe:
// idle key locks are dismantled (LockIdle) and idle tenant identities
// expire from the books (TenantIdle). Piggybacked on releases, like the
// single-lock reaper — a stripe nobody releases on never scans.
func (s *stripe) maybeReapLocked(m *Manager, now time.Duration) {
	lockIdle, tenantIdle := m.opts.LockIdle, m.opts.TenantIdle
	if lockIdle <= 0 && tenantIdle <= 0 {
		return
	}
	if now < s.nextReap {
		return
	}
	interval := lockIdle
	if interval <= 0 || (tenantIdle > 0 && tenantIdle < interval) {
		interval = tenantIdle
	}
	s.nextReap = now + interval/4
	check.Point("mgr.reap")
	if lockIdle > 0 {
		for key, ml := range s.keys {
			if ml.inflight != 0 || now-ml.lastUsed < lockIdle {
				continue
			}
			delete(s.keys, key)
			s.locksReaped++
		}
	}
	if tenantIdle > 0 {
		reaped := s.books.ExpireInactive(now, func(id core.ID) bool {
			st := s.stats[id]
			return st != nil && st.inflight > 0
		})
		for _, r := range reaped {
			delete(s.stats, r.ID)
			s.tenantsReaped++
		}
	}
}

// ManagerStats is a point-in-time snapshot of a Manager, aggregated
// across stripes. Per-tenant counters cover currently tracked tenants:
// identities expired by the TenantIdle GC (or closed) leave the
// per-tenant rows, exactly as reaped entities leave StatsSnapshot.
type ManagerStats struct {
	// Name is the manager's configured label; Stripes its stripe count.
	Name    string
	Stripes int
	// Keys is the number of currently materialized key locks;
	// Materialized and LocksReaped count materializations and lock reaps
	// since creation (Keys = Materialized − LocksReaped).
	Keys         int
	Materialized int64
	LocksReaped  int64
	// Identities is Σ over stripes of registered tenant identities (one
	// tenant counts once per stripe it is active on); TenantsReaped
	// counts identities expired by the TenantIdle GC.
	Identities    int
	TenantsReaped int64
	// Grants is the total number of completed grants.
	Grants int64
	// Tenants holds the per-tenant aggregates, sorted by descending hold.
	Tenants []ManagerTenantStats
}

// ManagerTenantStats aggregates one tenant's activity across all
// stripes of a Manager.
type ManagerTenantStats struct {
	// ID and Name identify the tenant; Weight is its scheduling weight.
	ID     int64
	Name   string
	Weight int64
	// Grants and Hold are completed grants and their summed hold windows.
	Grants int64
	Hold   time.Duration
	// Bans counts table-level penalties drawn; BanTime is their sum.
	Bans    int64
	BanTime time.Duration
	// Inflight is the tenant's grants currently in flight.
	Inflight int
	// HoldShare is this tenant's fraction of all tenants' hold time.
	HoldShare float64
}

// Stats snapshots the manager. It takes each stripe mutex in turn (not
// all at once), so the snapshot is internally consistent per stripe and
// approximately consistent table-wide.
func (m *Manager) Stats() ManagerStats {
	out := ManagerStats{Name: m.opts.Name, Stripes: len(m.stripes)}
	agg := make(map[core.ID]*ManagerTenantStats)
	for i := range m.stripes {
		s := &m.stripes[i]
		lockMutex(&s.mu)
		s.maybeReapLocked(m, monotime()) // snapshots drive the lazy GC, like Mutex.Stats
		out.Keys += len(s.keys)
		out.Materialized += s.materialized
		out.LocksReaped += s.locksReaped
		out.Identities += s.books.Len()
		out.TenantsReaped += s.tenantsReaped
		for id, st := range s.stats {
			a := agg[id]
			if a == nil {
				a = &ManagerTenantStats{ID: int64(id), Name: st.name, Weight: st.weight}
				agg[id] = a
			}
			a.Grants += st.grants
			a.Hold += st.hold
			a.Bans += st.bans
			a.BanTime += st.banTime
			a.Inflight += st.inflight
			out.Grants += st.grants
		}
		unlockMutex(&s.mu)
	}
	var total time.Duration
	for _, a := range agg {
		total += a.Hold
	}
	for _, a := range agg {
		if total > 0 {
			a.HoldShare = float64(a.Hold) / float64(total)
		}
		out.Tenants = append(out.Tenants, *a)
	}
	sort.Slice(out.Tenants, func(i, j int) bool {
		if out.Tenants[i].Hold != out.Tenants[j].Hold {
			return out.Tenants[i].Hold > out.Tenants[j].Hold
		}
		return out.Tenants[i].ID < out.Tenants[j].ID
	})
	return out
}

// Tenant returns the row for one tenant ID (ok=false if not tracked).
func (s ManagerStats) Tenant(id int64) (ManagerTenantStats, bool) {
	for _, t := range s.Tenants {
		if t.ID == id {
			return t, true
		}
	}
	return ManagerTenantStats{}, false
}

// JainHold computes Jain's fairness index over the named tenants' hold
// times (all tracked tenants when no IDs are given).
func (s ManagerStats) JainHold(ids ...int64) float64 {
	var xs []float64
	if len(ids) == 0 {
		for _, t := range s.Tenants {
			xs = append(xs, float64(t.Hold))
		}
	} else {
		for _, id := range ids {
			t, _ := s.Tenant(id)
			xs = append(xs, float64(t.Hold))
		}
	}
	return metrics.Jain(xs)
}

// Keys returns the number of currently materialized key locks.
func (m *Manager) Keys() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		lockMutex(&s.mu)
		n += len(s.keys)
		unlockMutex(&s.mu)
	}
	return n
}

// CheckInvariants verifies the manager's cross-layer bookkeeping and
// returns the first violation: every stripe's books pass the accountant
// invariants, in-flight counts agree between the key and tenant views,
// and every materialized lock passes its own invariant check. O(table); for tests and scldebug builds.
func (m *Manager) CheckInvariants() error {
	for i := range m.stripes {
		s := &m.stripes[i]
		lockMutex(&s.mu)
		err := s.checkLocked(i)
		unlockMutex(&s.mu)
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *stripe) checkLocked(i int) error {
	if err := s.books.CheckInvariants(); err != nil {
		return fmt.Errorf("scl: stripe %d books: %w", i, err)
	}
	keyFlight, tenFlight := 0, 0
	for key, ml := range s.keys {
		if ml.inflight < 0 {
			return fmt.Errorf("scl: stripe %d key %q inflight %d < 0", i, key, ml.inflight)
		}
		keyFlight += ml.inflight
		var err error
		if ml.mu != nil {
			err = ml.mu.CheckInvariants()
		} else {
			err = ml.rw.CheckInvariants()
		}
		if err != nil {
			return fmt.Errorf("scl: stripe %d key %q: %w", i, key, err)
		}
	}
	for id, st := range s.stats {
		if st.inflight < 0 {
			return fmt.Errorf("scl: stripe %d tenant %d inflight %d < 0", i, id, st.inflight)
		}
		tenFlight += st.inflight
	}
	if keyFlight != tenFlight {
		return fmt.Errorf("scl: stripe %d inflight mismatch: keys %d, tenants %d", i, keyFlight, tenFlight)
	}
	return nil
}
