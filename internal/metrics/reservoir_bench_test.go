package metrics

import (
	"testing"
	"time"
)

// BenchmarkReservoirAdd is the per-operation cost the lock stats pay for
// each wait and hold sample once an entity's reservoir is full: the
// common case, since the locks keep 512 samples per entity.
func BenchmarkReservoirAdd(b *testing.B) {
	r := NewReservoir(512, 1)
	for i := 0; i < 512; i++ {
		r.Add(time.Duration(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(time.Duration(i))
	}
}

// BenchmarkReservoirAddN is one fast-path fold's sample booking: a batch
// of 1000 identical observations into a full reservoir.
func BenchmarkReservoirAddN(b *testing.B) {
	r := NewReservoir(512, 1)
	r.AddN(0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AddN(time.Duration(i), 1000)
	}
}
