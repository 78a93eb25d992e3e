package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func ev(at time.Duration, kind Kind, entity int64, detail time.Duration) Event {
	return Event{At: at, Kind: kind, Entity: entity, Detail: detail}
}

func TestRingRecordsInOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		r.Record(ev(time.Duration(i), KindAcquire, int64(i), 0))
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("events = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Entity != int64(i) {
			t.Fatalf("event %d entity = %d", i, e.Entity)
		}
	}
	if r.Seen() != 5 || r.Dropped() != 0 {
		t.Fatalf("seen %d dropped %d", r.Seen(), r.Dropped())
	}
}

func TestRingWrapsAndCountsDrops(t *testing.T) {
	r := NewRing(8)
	if r.Cap() != 8 {
		t.Fatalf("cap = %d", r.Cap())
	}
	for i := 0; i < 20; i++ {
		r.Record(ev(time.Duration(i), KindRelease, int64(i), 0))
	}
	if got, want := r.Dropped(), uint64(12); got != want {
		t.Fatalf("dropped = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d, want 8", len(evs))
	}
	if evs[0].Entity != 12 || evs[7].Entity != 19 {
		t.Fatalf("retained window [%d..%d], want [12..19]", evs[0].Entity, evs[7].Entity)
	}
}

func TestRingCapRoundsUpAndDefaults(t *testing.T) {
	if got := NewRing(100).Cap(); got != 128 {
		t.Fatalf("cap(100) = %d, want 128", got)
	}
	if got := NewRing(0).Cap(); got != DefaultRingCap {
		t.Fatalf("cap(0) = %d, want %d", got, DefaultRingCap)
	}
}

// Concurrent writers and a racing reader: run under -race this verifies
// the lock-free claim; functionally it verifies no event is duplicated
// and snapshots only contain published events.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(1 << 10)
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // racing snapshot reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Events()
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(ev(time.Duration(i), KindAcquire, int64(w), 0))
			}
		}(w)
	}
	for r.Seen() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if r.Seen() != writers*per {
		t.Fatalf("seen = %d, want %d", r.Seen(), writers*per)
	}
	// A full ring is the common case but not guaranteed: when two writers
	// hold tickets one lap apart for the same slot, their stores can land
	// out of ticket order, leaving the slot on the older generation, which
	// Events rightly skips. At most one slot per concurrent writer can end
	// up stale this way.
	evs := r.Events()
	if len(evs) < r.Cap()-writers || len(evs) > r.Cap() {
		t.Fatalf("retained %d, want within [%d, %d]", len(evs), r.Cap()-writers, r.Cap())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{At: time.Millisecond, Kind: KindAcquire, Lock: "db", Entity: 1, Name: "hog", Detail: 42},
		{At: 2 * time.Millisecond, Kind: KindBan, Entity: 2, Detail: 5 * time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("event %d: %+v != %+v", i, in[i], out[i])
		}
	}
	if _, err := ReadJSONL(strings.NewReader("{bad json\n")); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestEventStringAndLabel(t *testing.T) {
	e := Event{At: time.Millisecond, Kind: KindRelease, Entity: 7, Detail: 3 * time.Microsecond}
	if got := e.Label(); got != "entity-7" {
		t.Fatalf("label = %q", got)
	}
	if s := e.String(); !strings.Contains(s, "release") || !strings.Contains(s, "held") {
		t.Fatalf("String() = %q", s)
	}
	if got := (Event{Entity: EntityReaders}).Label(); got != "readers" {
		t.Fatalf("readers label = %q", got)
	}
	if got := (Event{Entity: EntityWriters}).Label(); got != "writers" {
		t.Fatalf("writers label = %q", got)
	}
	if out := Format([]Event{e}); !strings.HasSuffix(out, "\n") {
		t.Fatalf("Format = %q", out)
	}
}

// Aggregate reconstructs the paper's measurements from a synthetic
// two-entity stream with a 3:1 hold imbalance and known idle time.
func TestAggregateImbalance(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	evs := []Event{
		// hog: holds [0,3) and [4,7); light: holds [3,4) and [8,9).
		{At: ms(0), Kind: KindAcquire, Lock: "db", Entity: 1, Name: "hog"},
		{At: ms(3), Kind: KindRelease, Lock: "db", Entity: 1, Name: "hog", Detail: ms(3)},
		{At: ms(3), Kind: KindAcquire, Lock: "db", Entity: 2, Name: "light"},
		{At: ms(4), Kind: KindRelease, Lock: "db", Entity: 2, Name: "light", Detail: ms(1)},
		{At: ms(4), Kind: KindAcquire, Lock: "db", Entity: 1, Name: "hog"},
		{At: ms(7), Kind: KindRelease, Lock: "db", Entity: 1, Name: "hog", Detail: ms(3)},
		{At: ms(7), Kind: KindBan, Lock: "db", Entity: 1, Name: "hog", Detail: ms(5)},
		{At: ms(7), Kind: KindSliceEnd, Lock: "db", Entity: 1, Name: "hog", Detail: ms(6)},
		{At: ms(8), Kind: KindAcquire, Lock: "db", Entity: 2, Name: "light", Detail: ms(1)},
		{At: ms(9), Kind: KindRelease, Lock: "db", Entity: 2, Name: "light", Detail: ms(1)},
	}
	locks := Aggregate(evs)
	if len(locks) != 1 {
		t.Fatalf("locks = %d", len(locks))
	}
	l := locks[0]
	if l.Lock != "db" || len(l.Entities) != 2 {
		t.Fatalf("lock %q entities %d", l.Lock, len(l.Entities))
	}
	hog, light := l.Entities[0], l.Entities[1]
	if hog.Label != "hog" { // sorted by hold desc
		t.Fatalf("dominant entity = %q", hog.Label)
	}
	if hog.Hold != ms(6) || light.Hold != ms(2) {
		t.Fatalf("holds %v / %v, want 6ms / 2ms", hog.Hold, light.Hold)
	}
	if hog.Bans != 1 || hog.BanTime != ms(5) || hog.SliceEnds != 1 {
		t.Fatalf("hog bans %d banTime %v sliceEnds %d", hog.Bans, hog.BanTime, hog.SliceEnds)
	}
	if l.Span != ms(9) || l.Busy != ms(8) || l.Idle != ms(1) {
		t.Fatalf("span %v busy %v idle %v", l.Span, l.Busy, l.Idle)
	}
	// LOT: hog 6+1=7, light 2+1=3.
	if got := l.LOT(light); got != ms(3) {
		t.Fatalf("light LOT = %v", got)
	}
	if j := l.JainHold(); j > 0.9 {
		t.Fatalf("Jain(hold) = %.3f, want imbalance visible (< 0.9)", j)
	}
	out := l.String()
	for _, want := range []string{"hog", "light", "Jain(hold)", "ban time"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestAggregateUnterminatedHold(t *testing.T) {
	// Stream ends while held: busy extends to the last event, idle 0.
	evs := []Event{
		{At: 0, Kind: KindAcquire, Entity: 1},
		{At: time.Millisecond, Kind: KindHandoff, Entity: 2},
	}
	l := Aggregate(evs)[0]
	if l.Busy != time.Millisecond || l.Idle != 0 {
		t.Fatalf("busy %v idle %v", l.Busy, l.Idle)
	}
	var e2 *EntityTotals
	for _, e := range l.Entities {
		if e.Entity == 2 {
			e2 = e
		}
	}
	if e2 == nil || e2.Handoffs != 1 {
		t.Fatalf("handoff not counted: %+v", e2)
	}
}

func TestAggregateKeysSimDumpsByName(t *testing.T) {
	// Simulator dumps carry names but zero entity IDs; entities must not
	// collapse into one.
	evs := []Event{
		{At: 0, Kind: KindAcquire, Name: "t0"},
		{At: 1, Kind: KindRelease, Name: "t0", Detail: 1},
		{At: 2, Kind: KindAcquire, Name: "t1"},
		{At: 3, Kind: KindRelease, Name: "t1", Detail: 1},
	}
	l := Aggregate(evs)[0]
	if len(l.Entities) != 2 {
		t.Fatalf("entities = %d, want 2", len(l.Entities))
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(1 << 12)
	e := Event{At: 1, Kind: KindAcquire, Entity: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(e)
	}
	_ = fmt.Sprint(r.Seen())
}
