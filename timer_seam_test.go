package scl

import (
	"fmt"
	"testing"
	"time"

	"scl/internal/check"
)

// TestRealSliceTimerWaitsOutCheckerRuns: a real slice timer that comes
// due while a checker scheduler is installed must not fire into the
// checker run, whose hooks would take the timer goroutine for the
// managed goroutine holding the token. A u-SCL lock locked once outside
// the checker arms a 1ms real timer; checker runs of a fresh Mutex, three
// goroutines of 20 rounds each, then fill the next 5ms.
func TestRealSliceTimerWaitsOutCheckerRuns(t *testing.T) {
	wall := NewMutex(Options{Slice: time.Millisecond})
	h := wall.Register()
	h.Lock()
	h.Unlock()
	for end := time.Now().Add(5 * time.Millisecond); time.Now().Before(end); {
		w := check.Workload{Setup: func(s *check.Sched) {
			m := NewMutex(Options{Slice: time.Millisecond})
			for g := 0; g < 3; g++ {
				h := m.Register()
				s.Go(fmt.Sprint("g", g), func() {
					for range 20 {
						h.Lock()
						h.Unlock()
					}
					h.Close()
				})
			}
		}}
		if r := check.RunWith(check.NewFirstChooser(), 0, w); r.Failure != nil {
			t.Fatalf("checker run beside a real slice timer:\n%v", r.Failure)
		}
	}
	h.Close()
	if err := wall.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
