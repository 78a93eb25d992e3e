package scl

// QueueLen reports how many waiters are queued on m, read under its
// internal mutex. The waiters bit cannot answer this: it tracks only
// waiters of the slice owner's own entity. Exported for bench_test.go.
func QueueLen(m *Mutex) int {
	m.lockMu()
	defer m.unlockMu()
	n := len(m.parked)
	if m.next != nil {
		n++
	}
	return n
}
