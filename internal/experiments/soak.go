package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"scl"
	"scl/internal/metrics"
)

// SoakResult is the multi-tenant lock-table soak: noisy tenants hammer
// the table with long critical sections in a tight loop while light
// tenants make short, paced requests over the same keys — the paper's
// §2 subversion setup lifted from one lock to a keyed table
// (scl.Manager). Because every tenant holds one accounting identity
// per stripe shared across all its keys, the table-level books ban the
// noisy tenants no matter how they spread their load, and the light
// tenants' acquire latency stays bounded: the noisy class cannot buy
// tail latency from the light class by being greedy.
type SoakResult struct {
	Horizon time.Duration
	Keys    int
	Rows    []SoakRow
	// LightJain is Jain's fairness index over the light tenants' hold
	// times — the "noisy tenants must not subvert light tenants"
	// acceptance bar (>= 0.9: no light tenant is singled out).
	LightJain float64
	// AllJain is Jain over every tenant's hold time; it stays well
	// below 1 by design (the classes do unequal work) — unequal usage
	// with equal opportunity is the SCL contract, not a bug.
	AllJain float64
	// Grants and Materialized summarize the table after the run.
	Grants       int64
	Materialized int64
}

// SoakRow is one tenant's outcome.
type SoakRow struct {
	Tenant    string
	Class     string // "noisy" or "light"
	Grants    int64
	Hold      time.Duration
	HoldShare float64
	Bans      int64
	BanTime   time.Duration
	// WaitP50/WaitP99 are acquire-latency percentiles (request to
	// grant), sampled per tenant.
	WaitP50, WaitP99 time.Duration
}

// String renders the per-tenant table and the fairness footer.
func (r *SoakResult) String() string {
	t := metrics.NewTable(
		fmt.Sprintf("multi-tenant soak: %d keys over %v (noisy = long CS, tight loop; light = short CS, paced)",
			r.Keys, r.Horizon.Round(time.Millisecond)),
		"tenant", "class", "grants", "hold", "hold%", "bans", "ban time", "wait p50", "wait p99")
	for _, row := range r.Rows {
		t.AddRow(row.Tenant, row.Class, row.Grants,
			row.Hold.Round(time.Millisecond).String(), 100*row.HoldShare,
			row.Bans, row.BanTime.Round(time.Millisecond).String(),
			row.WaitP50.Round(10*time.Microsecond).String(),
			row.WaitP99.Round(10*time.Microsecond).String())
	}
	return t.String() + fmt.Sprintf(
		"light Jain(hold): %.3f  all Jain(hold): %.3f  grants: %d  keys materialized: %d\n\n",
		r.LightJain, r.AllJain, r.Grants, r.Materialized)
}

// Soak population: a few noisy tenants against a larger light class,
// all over one shared key space.
const (
	soakNoisy = 2
	soakLight = 6
	soakKeys  = 24
)

// soakClock is the one seam between Soak's tenant loops and time: the
// wall clock (Soak, sclbench -exp soak) or a virtual clock, such as the
// deterministic checker's in TestSoakFairness.
type soakClock interface {
	// now is the time since the run started.
	now() time.Duration
	// spawn starts one tenant loop.
	spawn(name string, fn func())
	// hold passes a critical section's length; sleep a think time's.
	hold(d time.Duration)
	sleep(d time.Duration)
	// wait runs every spawned loop to its end.
	wait() error
}

// wallClock runs the loops as goroutines on the wall clock, spinning
// through critical sections.
type wallClock struct {
	start time.Time
	wg    sync.WaitGroup
}

func (c *wallClock) now() time.Duration { return time.Since(c.start) }

func (c *wallClock) spawn(_ string, fn func()) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		fn()
	}()
}

func (c *wallClock) hold(d time.Duration)  { spin(d) }
func (c *wallClock) sleep(d time.Duration) { time.Sleep(d) }
func (c *wallClock) wait() error           { c.wg.Wait(); return nil }

// Soak runs the multi-tenant table soak on a real scl.Manager.
func Soak(o Options) (*SoakResult, error) {
	return soak(o, &wallClock{start: time.Now()})
}

// soak runs the table soak with every tenant loop on clock c.
func soak(o Options, c soakClock) (*SoakResult, error) {
	horizon := o.scaled(1 * time.Second)
	if horizon < 40*time.Millisecond {
		horizon = 40 * time.Millisecond
	}
	m := scl.NewManager(scl.ManagerOptions{
		Name:    "soak",
		Lock:    scl.Options{Slice: 500 * time.Microsecond},
		Stripes: 4,
	})
	res := &SoakResult{Horizon: horizon, Keys: soakKeys}

	type tenantRun struct {
		tn    *scl.Tenant
		class string
		waits *metrics.Reservoir
	}
	var runs []*tenantRun
	for i := 0; i < soakNoisy; i++ {
		runs = append(runs, &tenantRun{
			tn:    m.Tenant(fmt.Sprintf("noisy-%d", i), 1),
			class: "noisy",
			waits: metrics.NewReservoir(4096, o.Seed+int64(i)),
		})
	}
	for i := 0; i < soakLight; i++ {
		runs = append(runs, &tenantRun{
			tn:    m.Tenant(fmt.Sprintf("light-%d", i), 1),
			class: "light",
			waits: metrics.NewReservoir(4096, o.Seed+100+int64(i)),
		})
	}

	for i, tr := range runs {
		i, tr := i, tr
		c.spawn(tr.tn.Name(), func() {
			// Key choice is seeded per tenant so the key-access pattern
			// is reproducible even though wall timing is not.
			rng := rand.New(rand.NewSource(o.Seed*31 + int64(i)))
			cs, think := 400*time.Microsecond, time.Duration(0)
			if tr.class == "light" {
				cs, think = 20*time.Microsecond, 200*time.Microsecond
			}
			for c.now() < horizon {
				key := fmt.Sprintf("key-%02d", rng.Intn(soakKeys))
				t0 := c.now()
				g := tr.tn.Lock(key)
				tr.waits.Add(c.now() - t0)
				c.hold(cs)
				g.Unlock()
				if think > 0 {
					c.sleep(think)
				}
			}
		})
	}
	if err := c.wait(); err != nil {
		return nil, err
	}

	stats := m.Stats()
	var lightIDs []int64
	for _, tr := range runs {
		ts, ok := stats.Tenant(tr.tn.ID())
		if !ok {
			return nil, fmt.Errorf("tenant %s missing from manager stats", tr.tn.Name())
		}
		sum := tr.waits.Summary()
		res.Rows = append(res.Rows, SoakRow{
			Tenant:    tr.tn.Name(),
			Class:     tr.class,
			Grants:    ts.Grants,
			Hold:      ts.Hold,
			HoldShare: ts.HoldShare,
			Bans:      ts.Bans,
			BanTime:   ts.BanTime,
			WaitP50:   sum.P50,
			WaitP99:   sum.P99,
		})
		if tr.class == "light" {
			lightIDs = append(lightIDs, tr.tn.ID())
		}
		tr.tn.Close()
	}
	res.LightJain = stats.JainHold(lightIDs...)
	res.AllJain = stats.JainHold()
	res.Grants = stats.Grants
	res.Materialized = stats.Materialized
	return res, nil
}

func init() {
	register(Runner{
		Name:  "soak",
		Paper: "§2 subversion at table scale: noisy tenants spraying long critical sections over a keyed lock table draw table-level bans; light tenants' hold-share fairness and acquire p99 stay bounded (scl.Manager)",
		Run:   func(o Options) (fmt.Stringer, error) { return Soak(o) },
	})
}
