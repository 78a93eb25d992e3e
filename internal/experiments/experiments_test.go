package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"scl/internal/check"
)

// tiny runs experiments fast enough for the unit-test suite.
var tiny = Options{Seed: 42, Scale: 0.01}

// TestEveryExperimentRuns smoke-tests every registered runner at a small
// scale: it must succeed and render a non-trivial table.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not -short")
	}
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			res, err := r.Run(tiny)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			out := res.String()
			if len(out) < 40 || !strings.Contains(out, "\n") {
				t.Fatalf("%s rendered suspiciously small output:\n%s", r.Name, out)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation", "churn", "groups", "multilock", "pi", "soak", "ule", "table1", "table2",
		"fig5a", "fig5c", "fig6", "fig7a", "fig7b", "fig8a", "fig8b",
		"fig9", "fig10", "fig11", "fig12a", "fig12b", "fig13", "fig14",
	}
	for _, name := range want {
		if _, ok := Get(name); !ok {
			t.Errorf("experiment %s not registered", name)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestScaledOptions(t *testing.T) {
	o := Options{Scale: 0.5}
	if got := o.scaled(2 * time.Second); got != time.Second {
		t.Fatalf("scaled = %v", got)
	}
	o = Options{}
	if got := o.scaled(2 * time.Second); got != 2*time.Second {
		t.Fatalf("unscaled = %v", got)
	}
}

// TestTable2MatchesPaperShape is the core acceptance test: the toy example
// must reproduce the paper's Table 2 shape at full scale.
func TestTable2MatchesPaperShape(t *testing.T) {
	res, err := Table2(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	byLock := map[string]Table2Row{}
	for _, row := range res.Rows {
		byLock[row.Lock] = row
	}
	for _, lock := range []string{"Mtx", "Spn", "Tkt"} {
		if byLock[lock].Jain > 0.75 {
			t.Errorf("%s Jain = %.3f, want < 0.75 (unfair)", lock, byLock[lock].Jain)
		}
		if byLock[lock].LOT0 < 15*time.Second {
			t.Errorf("%s LOT T0 = %v, want domination", lock, byLock[lock].LOT0)
		}
	}
	scl := byLock["SCL"]
	if scl.Jain < 0.98 {
		t.Errorf("SCL Jain = %.3f, want ~1", scl.Jain)
	}
	if scl.LOT0 < 9*time.Second || scl.LOT1 < 9*time.Second {
		t.Errorf("SCL LOTs = %v, %v, want ~10s each", scl.LOT0, scl.LOT1)
	}
}

// checkClock runs the soak's tenant loops on the deterministic
// checker: virtual time, one goroutine at a time in a fixed order, so
// the result depends on the seed alone, not on the machine's load.
type checkClock struct {
	s     *check.Sched
	steps int // scheduling steps the run took
}

func (c *checkClock) now() time.Duration           { return c.s.Now() }
func (c *checkClock) spawn(name string, fn func()) { c.s.Go(name, fn) }
func (c *checkClock) hold(d time.Duration)         { check.Sleep(d) }
func (c *checkClock) sleep(d time.Duration)        { check.Sleep(d) }

func (c *checkClock) wait() error {
	res := c.s.Run()
	c.steps = res.Steps
	if res.Failure != nil {
		return errors.New(res.Failure.String())
	}
	return nil
}

// TestSoakFairness is the lock-table acceptance test: under the
// multi-tenant soak, the noisy tenants must not subvert the light
// class — light hold-share fairness stays near 1 and light acquire
// p99 stays bounded (noisy greed converts to noisy bans, not light
// tail latency). It runs the soak on the checker's virtual clock.
func TestSoakFairness(t *testing.T) {
	c := &checkClock{s: check.NewSched(check.NewFirstChooser(), 1_000_000)}
	check.Install(c.s)
	res, err := soak(Options{Seed: 7, Scale: 0.5}, c)
	check.Uninstall(c.s)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d steps on the checker clock:\n%s", c.steps, res)
	if res.LightJain < 0.9 {
		t.Errorf("light-tenant Jain(hold) = %.3f, want >= 0.9:\n%s", res.LightJain, res)
	}
	noisyBans := int64(0)
	for _, row := range res.Rows {
		switch row.Class {
		case "noisy":
			noisyBans += row.Bans
		case "light":
			// Generous wall-clock bound: a light request's tail wait
			// must stay in lock-arbitration territory (slices + a
			// noisy ban), nowhere near the noisy class's service time.
			if row.WaitP99 > 50*time.Millisecond {
				t.Errorf("%s wait p99 = %v, want bounded:\n%s", row.Tenant, row.WaitP99, res)
			}
		}
	}
	if noisyBans == 0 {
		t.Errorf("noisy tenants drew no table-level bans:\n%s", res)
	}
}

// TestDeterministicExperiments: equal seeds must render identical tables.
func TestDeterministicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("not -short")
	}
	for _, name := range []string{"fig5a", "fig6", "fig9"} {
		r, _ := Get(name)
		a, err := r.Run(Options{Seed: 9, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Run(Options{Seed: 9, Scale: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("%s not deterministic:\n%s\nvs\n%s", name, a, b)
		}
	}
}
