// Command observe is a self-contained demo of the scl observability
// stack: it runs the paper's 2-entity imbalance scenario (one thread
// with long critical sections, one with short) on a traced SCL mutex
// plus a reader/writer pair on an RW-SCL, and serves the results over
// HTTP while they accumulate:
//
//	/metrics    Prometheus text exposition (export.MetricsHandler)
//	/debug/scl  JSON snapshot for cmd/scltop  (export.VarsHandler)
//	/debug/vars expvar, including the registry under the "scl" key
//	/dump       the trace ring as JSON lines (for scltop -replay)
//
// Run it, then in another terminal:
//
//	go run ./cmd/scltop -url http://localhost:6060/debug/scl
//
// and watch the SCL at work: the hog's critical sections are 10× the
// light thread's and its acquisition rate is ~10× lower, yet hold% and
// LOT% both settle near 50/50 — the lock slices and bans convert a
// wildly unequal workload into equal lock opportunity (Jain ≈ 1). On a
// plain mutex the same workload would give the hog ~90% of the hold
// time. The imbalance that remains visible is per-operation: compare
// the entities' hold p50 in /metrics, or the bans column.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"scl"
	"scl/export"
	"scl/trace"
)

func main() {
	addr := flag.String("addr", "localhost:6060", "HTTP listen address")
	slice := flag.Duration("slice", time.Millisecond, "lock slice length")
	flag.Parse()

	ring := trace.NewRing(trace.DefaultRingCap)
	m := scl.NewMutex(scl.Options{Name: "db", Slice: *slice, Tracer: ring})
	hog := m.Register().SetName("hog")
	light := m.Register().SetName("light")
	go loop(hog, 1*time.Millisecond)
	go loop(light, 100*time.Microsecond)

	rw := scl.NewRWLock(9, 1, 10**slice, scl.WithName("cache"))
	go func() {
		for {
			rw.RLock()
			busyFor(200 * time.Microsecond)
			rw.RUnlock()
		}
	}()
	go func() {
		for {
			rw.WLock()
			busyFor(500 * time.Microsecond)
			rw.WUnlock()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	reg := export.NewRegistry()
	reg.RegisterMutex("", m)
	reg.RegisterRWLock("", rw)
	reg.RegisterRing("db-ring", ring)
	reg.PublishExpvar("scl")

	http.Handle("/metrics", reg.MetricsHandler())
	http.Handle("/debug/scl", reg.VarsHandler())
	http.Handle("/debug/vars", expvar.Handler())
	http.HandleFunc("/dump", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = trace.WriteJSONL(w, ring.Events())
	})

	fmt.Printf("serving on http://%s — try:\n", *addr)
	fmt.Printf("  go run ./cmd/scltop -url http://%s/debug/scl\n", *addr)
	fmt.Printf("  curl http://%s/metrics\n", *addr)
	fmt.Printf("  curl -s http://%s/dump | go run ./cmd/scltop -replay /dev/stdin\n", *addr)
	if err := http.ListenAndServe(*addr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "observe:", err)
		os.Exit(1)
	}
}

// loop hammers the lock with fixed-length critical sections.
func loop(h *scl.Handle, cs time.Duration) {
	for {
		h.Lock()
		busyFor(cs)
		h.Unlock()
	}
}

// busyFor spins rather than sleeps, so the critical-section length is
// not quantized by timer resolution.
func busyFor(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
