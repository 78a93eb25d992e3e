// Command lockserver is a tenant-fair HTTP key-value store built on
// scl.Manager — the lock-table answer to the paper's lock-server
// motivation (§1: a thread that grabs a popular lock "as often as
// possible" owns the service). Every request names its tenant in the
// X-Tenant header; the store's per-key locks live in one Manager, so
// each tenant gets one accounting identity per stripe shared across
// all keys it touches. A tenant that hammers one hot key or sprays
// thousands of cold keys draws table-level bans either way, and the
// light tenants' requests keep flowing.
//
//	GET    /kv/<key>           read a value (404 if absent)
//	PUT    /kv/<key>           write the request body
//	DELETE /kv/<key>           delete the key
//
// An optional ?hold=<dur> query simulates critical-section work while
// the key lock is held (the knob for demos: a hostile tenant is just
// `?hold=2ms` in a loop). Cancellation is wired through: if the client
// hangs up while queued, the acquire aborts and the key is untouched.
//
// Observability endpoints mirror examples/observe:
//
//	/metrics    Prometheus text (per-tenant grants, holds, bans)
//	/debug/scl  JSON snapshot for cmd/scltop (by-tenant manager table)
//	/debug/vars expvar with the registry under the "scl" key
//
// Run with -demo to start a built-in noisy tenant ("hog", long holds
// sprayed over many keys) and three light tenants, then watch the
// table balance them:
//
//	go run ./examples/lockserver -demo
//	go run ./cmd/scltop -url http://localhost:6061/debug/scl
//
// The hog's hold% stays pinned near its weight share while its ban
// column climbs; the light tenants' grant rate barely moves. Swap the
// Manager for a plain per-key sync.Mutex map and the hog owns the
// server.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"scl"
	"scl/export"
)

func main() {
	var (
		addr    = flag.String("addr", "localhost:6061", "HTTP listen address")
		slice   = flag.Duration("slice", 0, "per-key lock slice length (0 = k-SCL keys, the table default)")
		stripes = flag.Int("stripes", 0, "manager stripes (0 = default)")
		lockGC  = flag.Duration("lock-gc", 30*time.Second, "reap key locks idle this long (0 = never)")
		weights = flag.String("weights", "", "tenant weights, e.g. hog=1,batch=2 (default 1)")
		demo    = flag.Bool("demo", false, "run built-in noisy + light tenants")
	)
	flag.Parse()

	s := &server{weights: parseWeights(*weights)}
	s.m = scl.NewManager(scl.ManagerOptions{
		Name:     "kv",
		Lock:     scl.Options{Slice: *slice},
		Stripes:  *stripes,
		LockIdle: *lockGC,
	})

	reg := export.NewRegistry()
	reg.RegisterManager("kv", s.m)
	reg.PublishExpvar("scl")

	http.HandleFunc("/kv/", s.handleKV)
	http.Handle("/metrics", reg.MetricsHandler())
	http.Handle("/debug/scl", reg.VarsHandler())
	http.Handle("/debug/vars", expvar.Handler())

	if *demo {
		go s.demoTenant("hog", 2*time.Millisecond, 16)
		go s.demoTenant("light-a", 100*time.Microsecond, 4)
		go s.demoTenant("light-b", 100*time.Microsecond, 4)
		go s.demoTenant("light-c", 100*time.Microsecond, 4)
	}

	fmt.Printf("serving on http://%s — try:\n", *addr)
	fmt.Printf("  curl -X PUT -d hello -H 'X-Tenant: alice' http://%s/kv/greeting\n", *addr)
	fmt.Printf("  curl -H 'X-Tenant: bob' http://%s/kv/greeting\n", *addr)
	fmt.Printf("  go run ./cmd/scltop -url http://%s/debug/scl\n", *addr)
	if err := http.ListenAndServe(*addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "lockserver:", err)
		os.Exit(1)
	}
}

// server is the KV store: values in a sync.Map (structure-level
// safety), per-key mutual exclusion and tenant fairness from the
// Manager (policy-level safety — the part a plain map lock can't do).
type server struct {
	m       *scl.Manager
	weights map[string]int64
	tenants sync.Map // tenant name -> *scl.Tenant
	store   sync.Map // key -> string
}

// tenant returns the one Tenant handle for a name, creating it on
// first use. Tenants are concurrency-safe, so every request from the
// same X-Tenant shares one table-wide accounting identity — that
// sharing is what lifts the fairness guarantee from per-key to
// per-tenant.
func (s *server) tenant(name string) *scl.Tenant {
	if t, ok := s.tenants.Load(name); ok {
		return t.(*scl.Tenant)
	}
	w := s.weights[name]
	if w <= 0 {
		w = 1
	}
	fresh := s.m.Tenant(name, w)
	actual, loaded := s.tenants.LoadOrStore(name, fresh)
	if loaded {
		fresh.Close() // lost the race; the stored one wins
	}
	return actual.(*scl.Tenant)
}

// handleKV serves /kv/<key> under the key's managed lock.
func (s *server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" || strings.Contains(key, "/") {
		http.Error(w, "usage: /kv/<key>", http.StatusBadRequest)
		return
	}
	name := r.Header.Get("X-Tenant")
	if name == "" {
		name = "anonymous"
	}
	var hold time.Duration
	if q := r.URL.Query().Get("hold"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d < 0 || d > time.Second {
			http.Error(w, "hold: want a duration in [0, 1s]", http.StatusBadRequest)
			return
		}
		hold = d
	}
	g, err := s.tenant(name).LockContext(r.Context(), key)
	if err != nil {
		// Client went away while queued; nothing was held.
		http.Error(w, "acquire canceled", http.StatusRequestTimeout)
		return
	}
	defer g.Unlock()
	if hold > 0 {
		busyFor(hold)
	}
	switch r.Method {
	case http.MethodGet:
		v, ok := s.store.Load(key)
		if !ok {
			http.Error(w, "no such key", http.StatusNotFound)
			return
		}
		fmt.Fprintln(w, v.(string))
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		s.store.Store(key, string(body))
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		s.store.Delete(key)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET, PUT, or DELETE", http.StatusMethodNotAllowed)
	}
}

// demoTenant drives the store in-process: each iteration writes one of
// keys round-robin, holding the key's lock for cs — a stand-in for a
// client fleet, so the fairness story is visible without load tooling.
func (s *server) demoTenant(name string, cs time.Duration, keys int) {
	tn := s.tenant(name)
	for i := 0; ; i++ {
		key := fmt.Sprintf("demo-%d", i%keys)
		g := tn.Lock(key)
		busyFor(cs)
		s.store.Store(key, name)
		g.Unlock()
		time.Sleep(200 * time.Microsecond)
	}
}

// parseWeights parses "name=w,name=w" into a weight map.
func parseWeights(s string) map[string]int64 {
	out := map[string]int64{}
	if s == "" {
		return out
	}
	for _, kv := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "lockserver: bad -weights entry %q (want name=weight)\n", kv)
			os.Exit(2)
		}
		var w int64
		if _, err := fmt.Sscanf(val, "%d", &w); err != nil || w <= 0 {
			fmt.Fprintf(os.Stderr, "lockserver: bad weight %q for %s\n", val, name)
			os.Exit(2)
		}
		out[name] = w
	}
	return out
}

// busyFor spins rather than sleeps, so held critical sections consume
// the lock the way real work would.
func busyFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
