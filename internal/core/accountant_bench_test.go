package core

import (
	"testing"
	"time"
)

// BenchmarkAcquireRelease is the accountant's share of one k-SCL lock
// operation: a slice start, then the acquire and release bookings of a
// 1µs hold with the penalty decision, for one of two equal entities.
// The two alternate, so neither is ever banned.
func BenchmarkAcquireRelease(b *testing.B) {
	a := NewAccountant(Params{})
	ids := [2]ID{1, 2}
	for _, id := range ids {
		a.Register(id, ReferenceWeight, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		id := ids[i&1]
		e := a.Lookup(id)
		a.StartSliceEntry(id, e, now)
		a.AcquireEntry(id, e, now)
		now += time.Microsecond
		a.ReleaseEntry(e, now)
		a.ClearSlice()
	}
}

// BenchmarkFoldBatch books one combining batch of eight closures from
// four entities, the per-drain cost of Handle.Do's combiner.
func BenchmarkFoldBatch(b *testing.B) {
	a := NewAccountant(Params{})
	charges := make([]Charge, 8)
	for i := range charges {
		id := ID(i%4 + 1)
		a.Register(id, ReferenceWeight, 0)
		charges[i] = Charge{ID: id, Usage: time.Microsecond}
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += 8 * time.Microsecond
		a.FoldBatch(charges, now)
	}
}
