package scenario

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"scl/sim"
)

// unlocked is a real lock whose acquire and release are skipped, so
// holders overlap.
type unlocked struct{ lock }

func (unlocked) acquire(context.Context, int) error { return nil }
func (unlocked) release(int)                        {}

// TestDriverReportsOverlap: the op loop's exclusion check catches
// holders the lock failed to exclude, on a Mutex and on an RWLock (a
// writer beside a reader).
func TestDriverReportsOverlap(t *testing.T) {
	for _, name := range []string{"herd", "oracle-rw-shared"} {
		s, err := LoadFile(filepath.Join("testdata", name+CorpusExt))
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runCheck(c, func() ([]sim.ScriptEntity, lock) {
			ents, l := realLock(c)
			return ents, unlocked{l}
		})
		if err == nil || !strings.Contains(err.Error(), "exclusion violated") {
			t.Errorf("%s without exclusion: want an exclusion failure, got %v", name, err)
		}
	}
}
