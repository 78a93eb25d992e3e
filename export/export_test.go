package export

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scl"
	"scl/trace"
)

// run2 drives a hog (long CS) and a light thread (short CS) through one
// traced mutex for the given wall time and returns everything the
// observability stack produced.
func run2(t *testing.T, dur time.Duration) (*Registry, *trace.Ring, *scl.Mutex) {
	t.Helper()
	ring := trace.NewRing(1 << 12)
	m := scl.NewMutex(scl.Options{Name: "db", Slice: time.Millisecond, Tracer: ring})
	hog := m.Register().SetName("hog")
	light := m.Register().SetName("light")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	work := func(h *scl.Handle, cs time.Duration) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Lock()
			busyFor(cs)
			h.Unlock()
		}
	}
	wg.Add(2)
	go work(hog, 1*time.Millisecond)
	go work(light, 100*time.Microsecond)
	time.Sleep(dur)
	close(stop)
	wg.Wait()

	r := NewRegistry()
	r.RegisterMutex("", m)
	r.RegisterRing("db-ring", ring)
	return r, ring, m
}

// busyFor spins (rather than sleeps) so critical-section length is not
// quantized by timer resolution.
func busyFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// The acceptance scenario: a 2-entity contended run must surface the
// paper's imbalance signal — per-operation hold times differing by the
// critical-section ratio — in the snapshot, in the ring events, and in
// the Prometheus exposition, while LOT stays balanced (the SCL at work).
func TestImbalanceSignalEndToEnd(t *testing.T) {
	r, ring, _ := run2(t, 150*time.Millisecond)

	snap := r.Snapshot()
	if len(snap.Locks) != 1 || len(snap.Locks[0].Entities) != 2 {
		t.Fatalf("snapshot shape: %+v", snap)
	}
	l := snap.Locks[0]
	if l.Name != "db" {
		t.Fatalf("lock name %q", l.Name)
	}
	var hog, light EntitySnapshot
	for _, e := range l.Entities {
		switch e.Name {
		case "hog":
			hog = e
		case "light":
			light = e
		}
	}
	if hog.Acquisitions == 0 || light.Acquisitions == 0 {
		t.Fatalf("both entities must run: hog %d, light %d", hog.Acquisitions, light.Acquisitions)
	}
	// Hold-time imbalance: the hog's critical sections are ~10× longer.
	if light.HoldP50 <= 0 || float64(hog.HoldP50)/float64(light.HoldP50) < 3 {
		t.Fatalf("per-op hold ratio %v / %v not clearly imbalanced", hog.HoldP50, light.HoldP50)
	}
	// Lock-opportunity balance: the SCL keeps LOT roughly proportional.
	if l.JainLOT < 0.8 {
		t.Errorf("Jain(LOT) = %.3f, want the SCL holding it near 1", l.JainLOT)
	}

	// The same signal from the ring events, through the replay path.
	locks := trace.Aggregate(ring.Events())
	if len(locks) != 1 {
		t.Fatalf("aggregated %d locks", len(locks))
	}
	agg := locks[0]
	var hogT, lightT *trace.EntityTotals
	for _, e := range agg.Entities {
		switch e.Label {
		case "hog":
			hogT = e
		case "light":
			lightT = e
		}
	}
	if hogT == nil || lightT == nil {
		t.Fatalf("aggregate entities: %+v", agg.Entities)
	}
	if len(hogT.Holds) == 0 || len(lightT.Holds) == 0 {
		t.Fatal("no per-op hold samples in the trace")
	}
	if hogT.Hold <= lightT.Hold/2 {
		t.Fatalf("trace hold totals hog %v light %v", hogT.Hold, lightT.Hold)
	}

	// And in the Prometheus exposition.
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`scl_lock_jain_lot{lock="db"}`,
		`scl_entity_hold_seconds_total{entity="hog",entity_id=`,
		`scl_entity_hold_seconds{entity="hog",entity_id=`,
		`quantile="0.99"`,
		`scl_entity_lock_opportunity_seconds{entity="light"`,
		`scl_trace_events_total{ring="db-ring"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestPrometheusHandlerAndContentType(t *testing.T) {
	r, _, _ := run2(t, 20*time.Millisecond)
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "# TYPE scl_lock_jain_hold gauge") {
		t.Fatalf("exposition:\n%s", body)
	}
}

func TestVarsHandlerRoundTrip(t *testing.T) {
	r, _, _ := run2(t, 20*time.Millisecond)
	srv := httptest.NewServer(r.VarsHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Locks) != 1 || snap.Locks[0].Name != "db" {
		t.Fatalf("decoded snapshot: %+v", snap)
	}
	if len(snap.Rings) != 1 || snap.Rings[0].Seen == 0 {
		t.Fatalf("ring snapshot: %+v", snap.Rings)
	}
}

func TestRegisterRWLockAndExpvar(t *testing.T) {
	l := scl.NewRWLock(9, 1, 0, scl.WithName("rw"))
	l.RLock()
	l.RUnlock()
	l.WLock()
	l.WUnlock()
	r := NewRegistry()
	r.RegisterRWLock("", l)
	snap := r.Snapshot()
	if len(snap.RWLocks) != 1 || snap.RWLocks[0].Name != "rw" {
		t.Fatalf("rw snapshot: %+v", snap.RWLocks)
	}
	if snap.RWLocks[0].ReaderOps != 1 || snap.RWLocks[0].WriterOps != 1 {
		t.Fatalf("ops: %+v", snap.RWLocks[0])
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `scl_rwlock_hold_seconds_total{class="read",lock="rw"}`) {
		t.Fatalf("exposition:\n%s", b.String())
	}

	// Expvar publication: registered exactly once per process, so use a
	// test-unique key.
	r.PublishExpvar("scl-test")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate expvar key did not panic")
		}
	}()
	r.PublishExpvar("scl-test")
}

func TestLabelEscaping(t *testing.T) {
	lb := labels{"lock": `a"b\c` + "\n"}
	got := lb.String()
	want := `{lock="a\"b\\c\n"}`
	if got != want {
		t.Fatalf("escaped = %s, want %s", got, want)
	}
}

func TestUnnamedFallbacks(t *testing.T) {
	r := NewRegistry()
	r.RegisterMutex("", scl.NewMutex(scl.Options{})) // no name anywhere
	r.RegisterRing("", trace.NewRing(16))
	snap := r.Snapshot()
	if snap.Locks[0].Name != "lock-0" {
		t.Fatalf("fallback name %q", snap.Locks[0].Name)
	}
	if snap.Rings[0].Name != "lock-0" {
		t.Fatalf("ring fallback name %q", snap.Rings[0].Name)
	}
}

// TestRegisterManagerExport drives a small lock table and checks the
// by-tenant aggregates come through both the JSON snapshot and the
// Prometheus exposition.
func TestRegisterManagerExport(t *testing.T) {
	m := scl.NewManager(scl.ManagerOptions{Name: "table", Lock: scl.Options{Slice: time.Millisecond}})
	a := m.Tenant("acme", scl.NiceToWeight(0))
	b := m.Tenant("", scl.NiceToWeight(0)) // unnamed: synthetic label
	for i := 0; i < 4; i++ {
		g := a.Lock("hot")
		busyFor(50 * time.Microsecond)
		g.Unlock()
	}
	g := b.Lock("cold")
	g.Unlock()

	r := NewRegistry()
	r.RegisterManager("", m)
	snap := r.Snapshot()
	if len(snap.Managers) != 1 {
		t.Fatalf("%d manager snapshots, want 1", len(snap.Managers))
	}
	ms := snap.Managers[0]
	if ms.Name != "table" {
		t.Fatalf("manager name %q, want the lock's own label", ms.Name)
	}
	if ms.Keys != 2 || ms.Grants != 5 {
		t.Fatalf("Keys=%d Grants=%d, want 2/5", ms.Keys, ms.Grants)
	}
	if len(ms.Tenants) != 2 {
		t.Fatalf("%d tenant rows, want 2", len(ms.Tenants))
	}
	if ms.Tenants[0].Label != "acme" { // sorted by hold: acme did the busy work
		t.Fatalf("top tenant %q, want acme", ms.Tenants[0].Label)
	}
	if ms.Tenants[1].Label == "" || !strings.HasPrefix(ms.Tenants[1].Label, "tenant-") {
		t.Fatalf("unnamed tenant label %q, want tenant-<id>", ms.Tenants[1].Label)
	}
	var share float64
	for _, ten := range ms.Tenants {
		share += ten.HoldShare
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("hold shares sum to %v, want ~1", share)
	}

	// JSON round trip.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Managers) != 1 || back.Managers[0].Grants != 5 {
		t.Fatalf("manager snapshot lost in JSON round trip: %+v", back.Managers)
	}

	// Prometheus exposition.
	srv := httptest.NewServer(r.MetricsHandler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	text := string(body)
	for _, want := range []string{
		`scl_manager_keys{manager="table"} 2`,
		`scl_manager_jain_hold{manager="table"}`,
		`scl_tenant_grants_total{manager="table",tenant="acme",tenant_id="`,
		`scl_tenant_hold_share{manager="table",tenant="acme"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
