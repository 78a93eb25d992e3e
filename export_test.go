package scl

// QueueLen reports how many waiters are queued on m, read under its
// internal mutex. The waiters bit cannot answer this: it tracks only
// waiters of the slice owner's own entity. Exported for bench_test.go.
func QueueLen(m *Mutex) int {
	m.lockMu()
	defer m.unlockMu()
	return len(m.queue)
}

// SliceTimerCreated reports whether m has ever created its slice-end
// timer, read under its internal mutex.
func SliceTimerCreated(m *Mutex) bool {
	m.lockMu()
	defer m.unlockMu()
	return m.timer.t != nil
}
