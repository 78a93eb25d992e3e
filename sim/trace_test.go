package sim

import (
	"strings"
	"testing"
	"time"

	"scl/trace"
)

func TestTraceRecordsLockEvents(t *testing.T) {
	e := New(Config{CPUs: 2, Horizon: 100 * time.Millisecond, Seed: 1})
	e.EnableTrace(0)
	lk := NewUSCL(e, time.Millisecond)
	e.Spawn("hog", TaskConfig{CPU: 0}, func(tk *Task) {
		lk.Lock(tk)
		tk.Compute(20 * time.Millisecond)
		lk.Unlock(tk)
	})
	e.Spawn("peer", TaskConfig{CPU: 1}, func(tk *Task) {
		for tk.Now() < e.Horizon() {
			lk.Lock(tk)
			tk.Compute(time.Millisecond)
			lk.Unlock(tk)
		}
	})
	e.Run()
	evs := e.TraceEvents()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	var sawAcquire, sawRelease, sawBan, sawTransfer bool
	var prev time.Duration
	for _, ev := range evs {
		if ev.At < prev {
			t.Fatalf("trace out of order at %v", ev.At)
		}
		prev = ev.At
		switch ev.Kind {
		case trace.KindAcquire:
			sawAcquire = true
		case trace.KindRelease:
			sawRelease = true
			if ev.Name == "hog" && ev.Detail >= 20*time.Millisecond {
				// the hog's long hold is visible in Detail
			}
		case trace.KindBan:
			if !sawBan && ev.Name != "hog" {
				// The first ban must hit the hog; later ones can hit the
				// peer once it overtakes its share of cumulative usage.
				t.Fatalf("first ban recorded for %q, want hog", ev.Name)
			}
			sawBan = true
		case trace.KindHandoff:
			sawTransfer = true
		}
	}
	if !sawAcquire || !sawRelease || !sawBan || !sawTransfer {
		t.Fatalf("missing kinds: acq=%v rel=%v ban=%v xfer=%v",
			sawAcquire, sawRelease, sawBan, sawTransfer)
	}
	out := trace.Format(evs[:3])
	if !strings.Contains(out, "acquire") {
		t.Fatalf("formatted trace:\n%s", out)
	}
}

func TestTraceRingDropsOldest(t *testing.T) {
	e := New(Config{CPUs: 1, Horizon: 10 * time.Millisecond, Seed: 1})
	e.EnableTrace(8)
	lk := NewMutex(e)
	e.Spawn("w", TaskConfig{}, func(tk *Task) {
		for tk.Now() < e.Horizon() {
			lk.Lock(tk)
			tk.Compute(100 * time.Microsecond)
			lk.Unlock(tk)
		}
	})
	e.Run()
	evs := e.TraceEvents()
	if len(evs) != 8 {
		t.Fatalf("ring kept %d events, want 8", len(evs))
	}
	// The retained events are the newest ones.
	if evs[0].At < 8*time.Millisecond {
		t.Fatalf("oldest retained event at %v, expected near the end of the run", evs[0].At)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	e := New(Config{CPUs: 1, Horizon: time.Millisecond, Seed: 1})
	lk := NewMutex(e)
	e.Spawn("w", TaskConfig{}, func(tk *Task) {
		lk.Lock(tk)
		lk.Unlock(tk)
	})
	e.Run()
	if evs := e.TraceEvents(); evs != nil {
		t.Fatalf("trace events without EnableTrace: %d", len(evs))
	}
}
