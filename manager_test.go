package scl

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scl/internal/check"
)

// invariants fails the test on the first manager invariant violation.
func invariants(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestManagerBasic: two tenants over a handful of keys — grants count,
// holds accumulate, keys materialize once, and the books balance.
func TestManagerBasic(t *testing.T) {
	m := NewManager(ManagerOptions{Name: "basic", Lock: Options{Slice: time.Millisecond}})
	a := m.Tenant("a", NiceToWeight(0))
	b := m.Tenant("b", NiceToWeight(0))
	for i := 0; i < 3; i++ {
		for _, tn := range []*Tenant{a, b} {
			g := tn.Lock(fmt.Sprintf("k%d", i))
			g.Unlock()
		}
	}
	invariants(t, m)
	st := m.Stats()
	if st.Keys != 3 || st.Materialized != 3 {
		t.Fatalf("Keys = %d, Materialized = %d, want 3/3", st.Keys, st.Materialized)
	}
	if st.Grants != 6 {
		t.Fatalf("Grants = %d, want 6", st.Grants)
	}
	for _, id := range []int64{a.ID(), b.ID()} {
		ts, ok := st.Tenant(id)
		if !ok || ts.Grants != 3 {
			t.Fatalf("tenant %d: row %+v ok=%v, want 3 grants", id, ts, ok)
		}
	}
	if n := m.Keys(); n != 3 {
		t.Fatalf("Keys() = %d, want 3", n)
	}
	a.Close()
	b.Close()
	invariants(t, m)
	if st := m.Stats(); st.Identities != 0 {
		t.Fatalf("%d identities survive Close", st.Identities)
	}
}

// TestManagerModePanics: acquire mode must match the table kind, and
// closed tenants must refuse new work.
func TestManagerModePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mu := NewManager(ManagerOptions{})
	rw := NewManager(ManagerOptions{RW: true})
	expectPanic("RLock on mutex table", func() { mu.Tenant("x", 1).RLock("k") })
	expectPanic("Lock on RW table", func() { rw.Tenant("x", 1).Lock("k") })
	expectPanic("zero-weight tenant", func() { mu.Tenant("x", 0) })
	tn := mu.Tenant("x", 1)
	tn.Close()
	tn.Close() // idempotent
	expectPanic("Lock on closed tenant", func() { tn.Lock("k") })
	g := mu.Tenant("y", 1).Lock("k")
	g.Unlock()
	expectPanic("double Unlock", func() { g.Unlock() })
}

// TestManagerRW: RW tables grant concurrent readers and exclusive
// writers, with grants booked per tenant.
func TestManagerRW(t *testing.T) {
	m := NewManager(ManagerOptions{RW: true, ReadWeight: 1, WriteWeight: 1,
		Lock: Options{Slice: time.Millisecond}})
	r := m.Tenant("readers", NiceToWeight(0))
	w := m.Tenant("writer", NiceToWeight(0))

	g1 := r.RLock("k")
	g2 := r.RLock("k") // concurrent read grant must not deadlock
	g1.Unlock()
	g2.Unlock()
	gw := w.WLock("k")
	gw.Unlock()
	invariants(t, m)
	st := m.Stats()
	if st.Grants != 3 {
		t.Fatalf("Grants = %d, want 3", st.Grants)
	}
	if rs, _ := st.Tenant(r.ID()); rs.Grants != 2 {
		t.Fatalf("reader grants = %d, want 2", rs.Grants)
	}
}

// TestManagerContext: cancellation during the key-lock wait returns the
// error, leaves the key unheld and the in-flight accounting clean.
func TestManagerContext(t *testing.T) {
	m := NewManager(ManagerOptions{Lock: Options{Slice: 50 * time.Millisecond}})
	holder := m.Tenant("holder", NiceToWeight(0))
	waiter := m.Tenant("waiter", NiceToWeight(0))
	g := holder.Lock("k")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := waiter.LockContext(ctx, "k"); err == nil {
		t.Fatal("LockContext under a held key returned nil error")
	}
	invariants(t, m)
	g.Unlock()
	// The key must be immediately acquirable again.
	g2 := waiter.Lock("k")
	g2.Unlock()
	invariants(t, m)

	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := waiter.LockContext(cancelled, "free"); err == nil {
		t.Fatal("pre-cancelled ctx acquired the lock")
	}
	if m.Keys() != 1 {
		// A pre-cancelled ctx must return before touching the table, so
		// "free" never materializes and only "k" exists.
		t.Fatalf("Keys = %d after pre-cancelled acquire, want 1", m.Keys())
	}
}

// TestManagerLifecycle is the issue's deterministic lifecycle suite:
// lazily materialize a key, use it, let the lock GC reap it, then
// re-materialize — the per-key lock starts fresh while the stripe-level
// tenant books are identical across the reap (usage, weight, identity),
// under CheckInvariants at every step.
func TestManagerLifecycle(t *testing.T) {
	const idle = 10 * time.Millisecond
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond},
	}, WithStripes(1), WithLockGC(idle))
	tn := m.Tenant("t", NiceToWeight(0))
	other := m.Tenant("spin", NiceToWeight(0))

	g := tn.Lock("k")
	time.Sleep(time.Millisecond)
	g.Unlock()
	go2 := other.Lock("other") // both tenants on the books before the baseline
	go2.Unlock()
	invariants(t, m)
	st := m.Stats()
	if st.Keys != 2 || st.Materialized != 2 {
		t.Fatalf("after first use: Keys=%d Materialized=%d, want 2/2", st.Keys, st.Materialized)
	}
	s := m.stripeOf("k")
	usage := s.books.Usage(tn.id)
	weight := s.books.TotalWeight()
	if usage <= 0 {
		t.Fatal("no usage booked at stripe level")
	}

	// Idle past the threshold; releases on another key drive the reaper.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		g := other.Lock("other")
		g.Unlock()
		if m.Stats().LocksReaped >= 1 {
			break
		}
	}
	st = m.Stats()
	if st.LocksReaped < 1 {
		t.Fatalf("lock not reaped: %+v", st)
	}
	invariants(t, m)
	// Books survive the reap: same identity, same usage, same weight.
	if got := s.books.Usage(tn.id); got != usage {
		t.Fatalf("stripe usage changed across lock reap: %v -> %v", usage, got)
	}
	if got := s.books.TotalWeight(); got != weight {
		t.Fatalf("stripe weight changed across lock reap: %v -> %v", weight, got)
	}

	// Re-materialize: a fresh per-key lock, stripe books still continuous.
	g = tn.Lock("k")
	g.Unlock()
	invariants(t, m)
	st = m.Stats()
	if st.Materialized < 3 {
		t.Fatalf("key not re-materialized: %+v", st)
	}
	if got := s.books.Usage(tn.id); got < usage {
		t.Fatalf("stripe usage regressed across re-materialization: %v -> %v", usage, got)
	}
	tn.Close()
	other.Close()
	invariants(t, m)
}

// TestManagerTenantGC: idle tenant identities expire from the stripe
// books while active ones survive.
func TestManagerTenantGC(t *testing.T) {
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond},
	}, WithStripes(1), WithTenantGC(10*time.Millisecond))
	idler := m.Tenant("idler", NiceToWeight(0))
	active := m.Tenant("active", NiceToWeight(0))
	g := idler.Lock("k")
	g.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		g := active.Lock("k")
		g.Unlock()
		st := m.Stats()
		if _, ok := st.Tenant(idler.ID()); !ok {
			if st.TenantsReaped < 1 {
				t.Fatalf("idler row gone but TenantsReaped = %d", st.TenantsReaped)
			}
			invariants(t, m)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("idle tenant never reaped: %+v", m.Stats())
}

// TestManagerTableFairness: an aggressive tenant spraying long holds
// across many keys must not deny a light tenant its table-wide share —
// the stripe books ban the hog, and the light tenant's waits stay
// bounded. This is the paper's opportunity argument lifted to the
// table: per-key accounting alone could never catch a tenant that never
// reuses a key.
func TestManagerTableFairness(t *testing.T) {
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: time.Millisecond, BanCap: 100 * time.Millisecond},
	}, WithStripes(1))
	hog := m.Tenant("hog", NiceToWeight(0))
	light := m.Tenant("light", NiceToWeight(0))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := hog.Lock(fmt.Sprintf("hog-%d", i%64)) // fresh-ish keys: per-key books see no repeat offender
			busy := time.Now().Add(500 * time.Microsecond)
			for time.Now().Before(busy) {
			}
			g.Unlock()
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the hog build up usage
	for i := 0; i < 20; i++ {
		g := light.Lock("shared")
		g.Unlock()
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	st := m.Stats()
	hs, _ := st.Tenant(hog.ID())
	if hs.Bans == 0 {
		t.Fatalf("hog drew no table-level bans: %+v", hs)
	}
	invariants(t, m)
}

// TestManagerStressKeyChurn is the issue's churn soak: a stream of
// mostly-fresh keys (>=100k in the full run) with the lock GC on must
// keep the table bounded — the live-key count plateaus instead of
// growing monotonically with keys ever seen.
func TestManagerStressKeyChurn(t *testing.T) {
	keys := 100_000
	if testing.Short() {
		keys = 20_000
	}
	const idle = 5 * time.Millisecond
	m := NewManager(ManagerOptions{
		Lock: Options{Slice: -1}, // k-SCL per key: churn keys have no slices to keep hot
	}, WithStripes(8), WithLockGC(idle), WithTenantGC(50*time.Millisecond))

	workers := 4
	var wg sync.WaitGroup
	var peak int
	var peakMu sync.Mutex
	perWorker := keys / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tn := m.Tenant(fmt.Sprintf("w%d", w), NiceToWeight(0))
			defer tn.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				g := tn.Lock(fmt.Sprintf("w%d-k%d", w, i))
				g.Unlock()
				if rng.Intn(64) == 0 {
					n := m.Keys()
					peakMu.Lock()
					if n > peak {
						peak = n
					}
					peakMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	invariants(t, m)
	st := m.Stats()
	if st.Materialized < int64(keys)*9/10 {
		t.Fatalf("only %d keys materialized, want ~%d", st.Materialized, keys)
	}
	if st.LocksReaped == 0 {
		t.Fatal("GC never reaped a lock under churn")
	}
	// Bounded: the table must have stayed far below the keys-ever-seen
	// count at every sample, and settle low once the churn stops.
	if peak >= keys/2 {
		t.Fatalf("live keys peaked at %d of %d seen — table growth is monotone", peak, keys)
	}
	deadline := time.Now().Add(5 * time.Second)
	settle := m.Tenant("settle", NiceToWeight(0))
	defer settle.Close()
	final := m.Keys()
	for time.Now().Before(deadline) {
		for i := 0; i < 8; i++ { // touch every stripe so each reaper runs
			g := settle.Lock(fmt.Sprintf("settle-%d", i))
			g.Unlock()
		}
		time.Sleep(idle)
		m.Stats()
		if final = m.Keys(); final < 64 {
			break
		}
	}
	if final >= 64 {
		t.Fatalf("table failed to settle: %d live keys after churn", final)
	}
	t.Logf("seen %d keys, peak %d live, settled at %d, reaped %d locks / %d tenant identities",
		st.Materialized, peak, final, st.LocksReaped, st.TenantsReaped)
}

// keyHandoffAt runs, on the checker clock, a holder tenant that keeps
// key "k" for hold while a second tenant queues on it, and returns the
// virtual times of the holder's release and of the waiter's grant.
func keyHandoffAt(t *testing.T, opts ManagerOptions, hold time.Duration) (released, granted time.Duration) {
	t.Helper()
	sched := check.NewSched(check.NewFirstChooser(), 0)
	check.Install(sched)
	defer check.Uninstall(sched)
	m := NewManager(opts)
	a := m.Tenant("a", 1)
	b := m.Tenant("b", 1)
	var held atomic.Bool
	sched.Go("holder", func() {
		g := a.Lock("k")
		held.Store(true)
		check.Sleep(hold)
		released = sched.Now()
		g.Unlock()
	})
	sched.Go("waiter", func() {
		check.WaitOrDone("test.held", held.Load, nil)
		g := b.Lock("k")
		granted = sched.Now()
		g.Unlock()
	})
	if res := sched.Run(); res.Failure != nil {
		t.Fatal(res.Failure)
	}
	invariants(t, m)
	return released, granted
}

// TestManagerKSCLKeysByDefault: with a zero Lock.Slice the per-key locks
// are k-SCL, so a tenant queued on a key is granted when the holder
// releases it, not when the holder's slice would have ended.
func TestManagerKSCLKeysByDefault(t *testing.T) {
	const hold = 100 * time.Microsecond
	released, granted := keyHandoffAt(t, ManagerOptions{}, hold)
	if released != hold || granted != released {
		t.Fatalf("released at %v, waiter granted at %v: want both at %v (k-SCL key)", released, granted, hold)
	}
	// An explicit slice keeps the u-SCL key: the queued tenant waits out
	// the holder's slice.
	_, granted = keyHandoffAt(t, ManagerOptions{Lock: Options{Slice: DefaultSlice}}, hold)
	if granted < DefaultSlice {
		t.Fatalf("waiter granted at %v inside the holder's %v slice (u-SCL key)", granted, DefaultSlice)
	}
}

// TestManagerExplicitSliceKeepsFastPath: a positive Lock.Slice gives
// u-SCL keys, on which a tenant re-acquiring its key inside its slice
// stays on the owner fast path; the default k-SCL key has none.
func TestManagerExplicitSliceKeepsFastPath(t *testing.T) {
	const n = 10
	for _, c := range []struct {
		slice    time.Duration
		wantFast int64
	}{
		{0, 0},
		{DefaultSlice, n - 1},
		{time.Hour, n - 1},
	} {
		sched := check.NewSched(check.NewFirstChooser(), 0)
		check.Install(sched)
		m := NewManager(ManagerOptions{Lock: Options{Slice: c.slice}})
		tn := m.Tenant("a", 1)
		var fast int64
		sched.Go("owner", func() {
			for i := 0; i < n; i++ {
				tn.Lock("k").Unlock()
			}
			// Read before Run fires the slice timer, which folds the count.
			fast = m.stripeOf("k").keys["k"].mu.fastOps.Load()
		})
		res := sched.Run()
		check.Uninstall(sched)
		if res.Failure != nil {
			t.Fatal(res.Failure)
		}
		if fast != c.wantFast {
			t.Errorf("Lock.Slice %v: %d fast acquires of %d, want %d", c.slice, fast, n, c.wantFast)
		}
		invariants(t, m)
	}
}

// TestManagerRWPeriodUnchanged: an RW table keeps Lock.Slice as its
// phase period, with zero still meaning DefaultSlice.
func TestManagerRWPeriodUnchanged(t *testing.T) {
	for _, c := range []struct{ slice, want time.Duration }{
		{0, DefaultSlice},
		{5 * time.Millisecond, 5 * time.Millisecond},
	} {
		m := NewManager(ManagerOptions{RW: true, Lock: Options{Slice: c.slice}})
		m.Tenant("w", 1).WLock("k").Unlock()
		if got := m.stripeOf("k").keys["k"].rw.ctrl.Params().Period; got != c.want {
			t.Errorf("Lock.Slice %v: phase period %v, want %v", c.slice, got, c.want)
		}
	}
}

// closeSeen is what a close case observed: tenant a's grants in flight
// and the waiters on key "k" when Close began, and whether a's acquire
// of "k" was cancelled.
type closeSeen struct {
	inflight, queued int
	cancelled        bool
}

// closeWorkload is one tenant-close case on the checker clock, on a
// table whose keys have the given slice (0: k-SCL, positive: u-SCL).
// Tenant a touches key "j", then closes: with nothing in flight
// ("idle"), while it holds key "k" ("held"), while its acquire of "k"
// runs behind tenant b's hold ("queued"), or as in "queued" with the
// acquire then cancelled ("cancelled"). Validate checks that the closed
// tenants left no registration on any key lock.
func closeWorkload(slice time.Duration, c string, seen *closeSeen) check.Workload {
	var m *Manager
	var cancel context.CancelFunc
	return check.Workload{
		Name: "manager-close-" + c,
		Setup: func(s *check.Sched) {
			m = NewManager(ManagerOptions{Lock: Options{Slice: slice}}, WithStripes(2))
			a, b := m.Tenant("a", 1), m.Tenant("b", 1)
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			var bHeld, aHeld, aStarted atomic.Bool
			s.Go("b", func() {
				g := b.Lock("k")
				bHeld.Store(true)
				check.Sleep(100 * time.Microsecond)
				g.Unlock()
				b.Lock("j").Unlock()
				b.Close()
			})
			s.Go("a", func() {
				a.Lock("j").Unlock()
				if c == "idle" {
					a.Close()
					return
				}
				if c != "held" {
					check.WaitOrDone("test.bheld", bHeld.Load, nil)
				}
				aStarted.Store(true)
				g, err := a.LockContext(ctx, "k")
				if err != nil {
					seen.cancelled = true
					return
				}
				aHeld.Store(true)
				check.Sleep(50 * time.Microsecond)
				g.Unlock()
			})
			if c == "idle" {
				return
			}
			s.Go("closer", func() {
				ready := aStarted.Load
				if c == "held" {
					ready = aHeld.Load
				}
				check.WaitOrDone("test.ready", ready, nil)
				row, _ := m.Stats().Tenant(a.ID())
				seen.inflight = row.Inflight
				seen.queued = keyQueued(m, "k")
				a.Close()
				if c == "cancelled" {
					cancel()
				}
			})
		},
		Validate: func() error {
			cancel()
			return closedTableClean(m)
		},
	}
}

// keyQueued returns the length of key's Mutex waiter queue.
func keyQueued(m *Manager, key string) int {
	s := m.stripeOf(key)
	lockMutex(&s.mu)
	ml := s.keys[key]
	unlockMutex(&s.mu)
	ml.mu.lockMu()
	defer ml.mu.unlockMu()
	return len(ml.mu.queue)
}

// closedTableClean checks a table whose tenants have all closed and
// whose operations have all finished: the books are empty, and every
// live key lock has no registered entity and no seed left.
func closedTableClean(m *Manager) error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	if n := m.Stats().Identities; n != 0 {
		return fmt.Errorf("%d tenant identities left in the books", n)
	}
	for i := range m.stripes {
		s := &m.stripes[i]
		lockMutex(&s.mu)
		for key, ml := range s.keys {
			if n := ml.mu.Entities(); n != 0 || len(ml.seeds) != 0 {
				unlockMutex(&s.mu)
				return fmt.Errorf("key %q: %d entities registered, %d seeds left", key, n, len(ml.seeds))
			}
		}
		unlockMutex(&s.mu)
	}
	return nil
}

// TestManagerCloseUnregisters: a closed tenant leaves no registration on
// any key lock, on k-SCL and u-SCL keys alike, whether it closed idle,
// with a grant in flight, with an acquire queued behind another tenant,
// or with a queued acquire that is then cancelled. The forced schedule
// pins each case; the explored schedules also land the Close at every
// point of the acquire and the release.
func TestManagerCloseUnregisters(t *testing.T) {
	for _, slice := range []time.Duration{0, DefaultSlice} {
		for _, c := range []struct {
			name string
			want closeSeen
		}{
			{"idle", closeSeen{}},
			{"held", closeSeen{inflight: 1}},
			{"queued", closeSeen{inflight: 1, queued: 1}},
			{"cancelled", closeSeen{inflight: 1, queued: 1, cancelled: true}},
		} {
			var seen closeSeen
			w := closeWorkload(slice, c.name, &seen)
			if res := check.RunWith(check.NewFirstChooser(), 0, w); res.Failure != nil {
				t.Fatalf("slice %v, %s: %v", slice, c.name, res.Failure)
			}
			if seen != c.want {
				t.Fatalf("slice %v, %s: saw %+v at Close, want %+v", slice, c.name, seen, c.want)
			}
			sum := check.Explore(check.Opts{Schedules: 300, Seed: 1, Mode: "random"}, w)
			if sum.Failure != nil {
				t.Fatalf("slice %v, %s: %v", slice, c.name, sum.Failure)
			}
		}
	}
}
