// Package upscale implements an UpScaleDB-analogue: an embedded key-value
// store backed by a B+-tree and a write-ahead journal, protected by one
// global environment lock — the locking structure behind the paper's
// Figures 1 and 10. Find operations only search the tree; insert
// operations update the tree and append-commit to the journal, so insert
// critical sections are an order of magnitude longer than find critical
// sections (paper Table 1, UpScaleDB row).
//
// The store runs in two harnesses: a real-goroutine mode (sclbench
// -exp table1, examples) and a simulator twin where each simulated thread executes the
// real data-structure operation, measures its actual duration, and charges
// it to the simulated CPU at the reference host's speed (see RunSim).
package upscale

import (
	"encoding/binary"
	"math/rand"

	"scl/internal/btree"
	"scl/internal/journal"
)

// Store is the shared state guarded by the global environment lock.
// Store methods are not goroutine-safe; callers hold the lock under study.
type Store struct {
	tree    *btree.Tree
	journal *journal.Journal
	nextKey uint64
}

// valueSize is the record payload size; with the journal's device passes
// it calibrates insert critical sections to the microseconds the paper
// measures for UpScaleDB (Table 1: insert p50 1.11µs vs find p50 0.03µs).
const valueSize = 256

// NewStore creates a store preloaded with preload sequential records.
func NewStore(preload int) *Store {
	s := &Store{tree: btree.New(), journal: journal.New(128)}
	var val [valueSize]byte
	for i := 0; i < preload; i++ {
		s.tree.Insert(s.keyBytes(uint64(i)), val[:])
	}
	s.nextKey = uint64(preload)
	return s
}

func (s *Store) keyBytes(k uint64) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], k)
	return b[:]
}

// Len returns the number of records.
func (s *Store) Len() int { return s.tree.Len() }

// Find performs one random lookup (the ups_bench find op). It returns
// whether the key was present.
func (s *Store) Find(rng *rand.Rand) bool {
	if s.nextKey == 0 {
		return false
	}
	k := uint64(rng.Int63n(int64(s.nextKey)))
	_, ok := s.tree.Get(s.keyBytes(k))
	return ok
}

// Insert performs one random-key insert plus a journal append and group
// commit (ups_bench with fsync-style journaling). The journal write
// dominates, making insert critical sections roughly an order of
// magnitude longer than finds, as in the paper's Table 1.
func (s *Store) Insert(rng *rand.Rand) {
	k := s.nextKey
	s.nextKey++
	var val [valueSize]byte
	rng.Read(val[:])
	key := s.keyBytes(k)
	s.tree.Insert(key, val[:])
	s.journal.Append(key)
	s.journal.Append(val[:])
	s.journal.Commit()
}
