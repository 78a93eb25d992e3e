// Package scl implements Scheduler-Cooperative Locks (SCLs) for Go,
// reproducing the locking primitives of "Avoiding Scheduler Subversion
// using Scheduler-Cooperative Locks" (Patel et al., EuroSys 2020).
//
// Classic locks let whoever holds the lock longest dominate the CPU: lock
// usage, not the scheduler, decides who runs (the paper's "scheduler
// subversion" problem). SCLs fix this by accounting lock usage per
// schedulable entity and giving every entity a proportional time window of
// lock opportunity:
//
//   - Mutex is a u-SCL: a mutual-exclusion lock with per-entity usage
//     accounting, lock slices (an owner may re-acquire freely within its
//     slice), and penalties that ban over-users until the other entities
//     have had their proportional opportunity.
//   - RWLock is an RW-SCL: a reader-writer lock whose read and write
//     slices alternate with lengths proportional to configured class
//     weights, so neither readers nor writers can starve the other side.
//   - TicketLock, SpinLock and BargingMutex are the traditional baselines
//     the paper compares against.
//
// Entities are explicit: each goroutine (or connection, tenant, work
// class — any schedulable entity) calls Register on a Mutex to obtain a
// Handle and locks through it. This mirrors the paper's per-thread state
// (allocated via pthread keys in the original C implementation); Go has no
// per-goroutine storage, so registration is explicit.
//
// Weights use the Linux CFS nice-to-weight table, so lock-opportunity
// shares line up with CPU shares under a proportional-share scheduler.
//
// # Observability
//
// Every lock can report and stream what it is doing:
//
//   - Mutex.Stats returns a StatsSnapshot: per-entity acquisitions, hold
//     time, lock opportunity time, bans, ban time, handoffs, and hold/wait
//     distributions, plus lock-level idle time, Jain fairness indices,
//     the registered-entity count and inactive-entity reap counters.
//   - The Tracer interface (Options.Tracer, Mutex.SetTracer,
//     RWLock.SetTracer) receives, through its one Record method, a
//     structured trace.Event for every acquisition, release, slice end,
//     ban, handoff, abandonment, combined batch and inactive-entity reap;
//     the trace.Kind constants document each. Package scl/trace
//     provides a lock-free bounded ring buffer that satisfies Tracer,
//     plus JSONL serialization and offline aggregation.
//   - Package scl/export turns any set of locks and rings into continuous
//     metrics: a Prometheus text-exposition endpoint, expvar publication,
//     and the JSON snapshot that cmd/scltop renders live.
//
// Tracing is strictly opt-in: with a nil Tracer the only cost on the lock
// paths is a nil check.
//
// # Cancellation
//
// Lock, RLock and WLock block until the lock is acquired, however long the
// current slice owner or a pending penalty makes that. Handle.LockContext,
// RWLock.RLockContext and RWLock.WLockContext bound the wait with a
// context: when ctx is cancelled the call returns ctx.Err() and the lock
// is NOT held. The guarantees:
//
//   - An already-cancelled ctx returns immediately, even when the lock is
//     free — the acquisition is never attempted.
//   - Cancellation interrupts both waiting phases: the ban sleep (the
//     paper's penalty, imposed at acquire) and the waiter queue.
//   - An abandoning waiter detaches cleanly. Its queue slot is removed; if
//     an ownership grant raced with the cancellation, the grant is
//     re-routed to the next eligible waiter rather than lost, so the lock
//     keeps making progress.
//   - Abandonment leaves the accounting books exactly as if the entity had
//     never queued: no usage is charged, no ban is drawn, slice ownership
//     and join credit are untouched. Bans the entity already owed remain
//     owed — walking away from the wait does not pay down the penalty.
//
// Every abandonment is observable: it increments the per-entity Cancels
// counter in StatsSnapshot (per-class ReaderCancels/WriterCancels in
// RWStats), emits a trace.KindAbandon event to the Tracer, and is exported
// by scl/export as scl_entity_cancels_total / scl_rwlock_cancels_total.
// See examples/deadline for per-request lock deadlines.
//
// # The slice-owner fast path
//
// The point of a lock slice (paper §4.2, Figure 3) is that re-acquisition
// by the owner is nearly free: in the paper's Figure 3, steps 4–6, the
// owner re-acquires with a single atomic instruction while everyone else
// waits for the slice boundary. This implementation realizes that with a
// packed 64-bit state word on Mutex:
//
//	bit 63  held      — the lock is held
//	bit 62  transfer  — an ownership grant to a waiter is in flight
//	bit 61  waiters   — a waiter of the slice owner's own entity is queued
//	bit 60  stale     — the slice expired; the fast path stands down
//	bits 0–59         — slice-owner entity id + 1 (0 = no owner)
//
// While the word names the caller's entity as the live slice owner, Lock
// and Unlock are one compare-and-swap each — no internal mutex, no clock
// read — also while other entities' waiters are queued: they wait for the
// slice boundary, which the slice timer runs, so the owner's release has
// nothing to decide for them. Only a queued sibling handle of the owner
// (the same entity) raises the waiters bit; it sends the owner's release
// to the slow path, which hands the sibling the lock within the slice. A
// k-SCL word carries no owner bits and never raises it. Accounting is
// deferred, as in the paper: a per-slice operation counter plus the
// wall-clock window of the fast regime are folded into the accounting
// engine (core.Accountant.FoldSliceUsage) and the stats at slice
// boundaries, handoffs, and Stats snapshots. During its slice the owner
// is charged the slice's wall-clock window — the lock opportunity it
// denies everyone else. Slice expiry is enforced by the slice timer: it
// hands a free lock to the next waiter, or sets the stale bit so the
// holder's release takes the slow path and runs the boundary (transfer,
// penalty, events). Mapping to the paper's Figure 3:
//
//   - steps 1–3 (first acquisition, slice start) — Mutex.Lock slow path,
//     startSlice mirrors ownership into the state word;
//   - steps 4–6 (owner re-acquires within the slice) — fastLock and
//     fastUnlock, one CAS each;
//   - step 7 (slice expires) — onSliceTimer transfers a free lock or
//     stale-marks the word, and a slow-path release past the slice end
//     observes the expiry directly;
//   - steps 8–9 (transfer to the next waiter, penalty for the over-user) —
//     transferLocked and Accountant.OnRelease, unchanged slow path.
//
// RWLock packs the analogous coordination word — {writer-active, phase,
// waiters, flip epoch} — but keeps the reader count out of it: readers
// during an uncontested read slice publish on a BRAVO-style distributed
// read indicator (cache-line-padded per-shard counters, shard picked per
// goroutine) and revalidate the word, so the read fast path touches no
// shared cache line and reader throughput stays flat as readers are
// added. Writers sweep the shards at each phase flip and are admitted
// only on an exact-zero sum; the fast paths are clock-free, with usage
// charged regime-granularly by the next slow-path operation (DESIGN.md
// §3.6). A k-SCL (Slice < 0) has no slices and therefore no fast path,
// and no slice timer either: every release is a slice boundary that
// hands the lock to the next waiter under the internal mutex, so a
// k-SCL Mutex never creates one.
//
// # Paper-to-code map
//
// The SCL mechanism of paper §4 lives, clock-independent and shared with
// the simulator, in internal/core:
//
//   - §4.1 "Lock usage accounting" — core.Accountant. Register assigns the
//     per-entity weight; OnAcquire/OnRelease charge critical-section time
//     to the holder (Usage, GrandUsage); rescale keeps totals bounded.
//     The real-lock wall-clock bookkeeping around it (idle time, holder
//     overlap, distributions) is lockStats in stats.go, which a
//     Manager's key locks leave out (Manager.Stats is a table's view).
//   - §4.2 "Lock slices" — Accountant.StartSlice, SliceOwner, SliceExpired,
//     SliceEnd. The owner's one-CAS re-acquisition inside its slice is
//     Mutex.fastLock/fastUnlock on the packed state word (see "The
//     slice-owner fast path" above), with deferred usage batched through
//     Accountant.FoldSliceUsage; the slice-expiry timer wakeup is
//     Mutex.onSliceTimer (u-SCL only: a k-SCL's release is its own
//     slice boundary).
//   - §4.2 "Penalties" — Accountant.penalty computes the ban from the
//     entity's usage beyond its proportional share; OnRelease returns it in
//     Release.Penalty, BannedUntil/Banned enforce it, and Mutex.Lock sleeps
//     it out before queueing.
//   - §4.3 "Waiting and handoff" — the waiter queue (Mutex.queue),
//     spin-then-park (parker.await, shared with the RWLock's waiters;
//     only a waiter that arrives at an empty queue spins, the
//     next-thread prefetch) and slice transfer (Mutex.transferLocked,
//     Mutex.handoff) in mutex.go.
//   - §5 RW-SCL — core.RWController (internal/core/rw.go) owns the
//     read/write phase machine and weighted slice lengths; RWLock
//     (rwlock.go) adds the real waiters and class accounting.
//   - §6 "Schedulable entities beyond threads" — Handle.Sibling binds
//     several goroutines to one accounted entity; the group keeps its
//     slice busy via the intra-class handoff in Mutex.takeClassWaiter
//     (work conservation within an entity).
//
// The k-SCL variant used for kernel-style locks is a Mutex with
// Options{Slice: -1} (every release is a slice boundary) and an
// InactiveTimeout for entity garbage collection.
//
// # Entity lifecycle and the inactive-entity GC
//
// An entity's accounting state lives from Register to Handle.Close. For
// long-lived entities (worker pools, tenants) that is the whole story:
// Close settles the books and removes the entity's weight, so survivors'
// proportional shares grow immediately. Close during an operation in
// flight — the entity holding the lock, parked in the waiter queue, or
// inside a lock-free fast-path hold — defers the removal to the end of
// that operation, which converges to the same books (no stale weight, no
// lost grant; a departing slice owner's queued peers are granted the lock
// at once).
//
// Workloads that register an entity per short-lived actor — a goroutine
// per request, a connection per client — cannot rely on Close discipline
// alone: the paper's kernel k-SCL faces the same problem with threads
// that exit without unregistering, and reclaims per-thread state idle
// longer than one second (§4.4). WithInactiveGC is that mechanism with a
// configurable threshold: entities idle past it are reaped — removed
// from the accounting, their sibling refcount and per-entity stats
// dropped — so registered-entity count and memory stay proportional to
// the active set, not to every entity ever seen. Differences from the
// kernel, deliberate in a library:
//
//   - The reaper is lazy: it piggybacks on slice boundaries, the slice
//     timer and Stats snapshots, rate-limited to once per quarter
//     threshold. There is no background goroutine, and a lock whose
//     entities all close cleanly never scans at all.
//   - Holders, the live slice owner, queued waiters and banned entities
//     are never reaped — reaping a banned entity would launder its
//     penalty into a fresh registration.
//   - A reaped entity's Handle keeps working: the next acquisition
//     re-registers it through the join-credit floor (Options.JoinCredit),
//     exactly like a latecomer, so expiry cannot be farmed for an
//     accounting advantage.
//
// Each reap emits a trace.KindReap event to the Tracer, counts in
// StatsSnapshot.Reaped/ReapedHold and scl_entities_reaped_total, and the
// live count is StatsSnapshot.Registered, Mutex.Entities and
// scl_entities_registered. See examples/churn for the
// goroutine-per-request pattern.
//
// # Lock tables
//
// Manager scales the same discipline to a keyed namespace — a lock per
// key, lazily materialized in a striped table, with Tenant as the
// accounted identity instead of Handle. The per-key locks are k-SCL
// unless ManagerOptions.Lock.Slice is positive: a table is shared by
// many tenants with short holds, the case the paper's kernel lock
// serves with a zero-length slice (§4.4). A tenant holds one accounting
// identity per stripe shared across every key it touches, so usage it
// sprays over many keys is booked together: per-key fairness comes from
// each key's own SCL, table-level fairness from per-stripe tenant books
// charged at Grant.Unlock, whose bans stack across concurrent holds and
// are slept out at the tenant's next acquire on that stripe. The key
// locks keep no per-entity statistics of their own: Manager.Stats, read
// from the stripe books, is the only view of a table.
//
// Key and tenant lifetimes follow the GC story above, at both levels:
//
//   - A key's lock lives from first use until reaped. ManagerOptions
//     .LockIdle (WithLockGC) dismantles key locks idle past the
//     threshold; the next use re-materializes the key with fresh
//     per-key accounting but unchanged stripe books — reaping a lock
//     never launders a tenant's table-level usage. Keys() and
//     ManagerStats track the live set, so the table's memory follows
//     the working set rather than the key universe.
//   - A tenant lives from Manager.Tenant to Tenant.Close. Close settles
//     the tenant's books on every stripe once in-flight grants unlock;
//     acquiring through a closed tenant panics, like a closed Handle.
//     For tenants that come and go without Close discipline,
//     TenantIdle (WithTenantGC) reaps idle identities — never ones
//     with grants in flight or unserved bans — and a returning tenant
//     re-registers through the join-credit floor.
//
// See examples/lockserver for the end-to-end pattern (an HTTP KV store
// keyed by request path, tenants from a header) and DESIGN.md §8 for
// the stripe layout and the paper mapping.
package scl
