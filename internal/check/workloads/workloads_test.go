package workloads

import (
	"testing"
	"time"

	"scl/sim"
)

// TestComposeCoversEveryOp: the compose mix scripts every op kind, and a
// close-while-held on an entity with no sibling, whose release is then a
// ghost release on every schedule.
func TestComposeCoversEveryOp(t *testing.T) {
	o := composeOpts(2 * time.Millisecond)
	o.defaults()
	seen := map[sim.ScriptOpKind]bool{}
	ghost := false
	for e := 0; e < o.Entities+o.siblings(); e++ {
		for _, op := range o.script(e, nil) {
			seen[op.Kind] = true
			ghost = ghost || op.Kind == sim.OpCloseHeld && e > 0 && e < o.Entities
		}
	}
	for k := sim.OpThink; k <= sim.OpCloseHeld; k++ {
		if !seen[k] {
			t.Errorf("no op of kind %d in the compose scripts", k)
		}
	}
	if !ghost {
		t.Error("no close-while-held on an entity without siblings: no ghost release")
	}
}
