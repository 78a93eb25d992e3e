package core

import "time"

// Phase identifies which class of an RW-SCL currently owns the lock slice.
type Phase int

const (
	// PhaseRead is the read slice: readers may acquire (shared), writers wait.
	PhaseRead Phase = iota
	// PhaseWrite is the write slice: writers may acquire (exclusive), readers wait.
	PhaseWrite
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	if p == PhaseRead {
		return "read"
	}
	return "write"
}

// Other returns the opposite phase.
func (p Phase) Other() Phase {
	if p == PhaseRead {
		return PhaseWrite
	}
	return PhaseRead
}

// RWParams configures an RWController.
type RWParams struct {
	// Period is the combined length of one read slice plus one write slice;
	// it is split between the classes in proportion to their weights. Zero
	// means DefaultSlice.
	Period time.Duration
	// ReadWeight and WriteWeight set the lock-opportunity ratio between the
	// reader class and the writer class (e.g. 9 and 1 for the paper's
	// KyotoCabinet experiments). Zero-valued weights default to 1.
	ReadWeight, WriteWeight int64
}

func (p RWParams) withDefaults() RWParams {
	if p.Period == 0 {
		p.Period = DefaultSlice
	}
	if p.ReadWeight <= 0 {
		p.ReadWeight = 1
	}
	if p.WriteWeight <= 0 {
		p.WriteWeight = 1
	}
	return p
}

// RWController decides, for an RW-SCL, which class's slice is active.
// RW-SCL classifies by work type rather than by thread (paper §4.5), so
// there is no per-entity accounting: read and write slices simply
// alternate, like a phase-fair lock, with lengths proportional to the
// configured class weights. The controller is pure state; the enclosing
// lock serializes access and implements draining.
type RWController struct {
	params     RWParams
	phase      Phase
	phaseStart time.Duration
	fresh      bool // no acquisition has entered the current slice yet
}

// NewRWController returns a controller. The lock begins in a read slice,
// as in the paper's Figure 4.
func NewRWController(p RWParams) *RWController {
	return &RWController{params: p.withDefaults()}
}

// Params returns the effective (defaulted) parameters.
func (c *RWController) Params() RWParams { return c.params }

// Phase returns the currently active slice's class.
func (c *RWController) Phase() Phase { return c.phase }

// SliceLen returns the length of the given class's slice:
// Period × weight_class / (ReadWeight + WriteWeight).
func (c *RWController) SliceLen(p Phase) time.Duration {
	total := c.params.ReadWeight + c.params.WriteWeight
	w := c.params.ReadWeight
	if p == PhaseWrite {
		w = c.params.WriteWeight
	}
	return time.Duration(float64(c.params.Period) * float64(w) / float64(total))
}

// Expired reports whether the current slice has run past its length.
func (c *RWController) Expired(now time.Duration) bool {
	return now-c.phaseStart >= c.SliceLen(c.phase)
}

// PhaseEnd returns when the current slice expires.
func (c *RWController) PhaseEnd() time.Duration {
	return c.phaseStart + c.SliceLen(c.phase)
}

// MaybeSwitch advances to the other class's slice when the current slice
// has expired and the other class wants the lock. Slices strictly
// alternate (like a phase-fair lock, paper §7); a momentarily-idle class
// keeps the remainder of its slice, because instantaneous idleness — e.g.
// every reader being between two acquisitions — says nothing about the
// class's demand. It returns the phase in force after the call. curWants
// and otherWants report whether the phase's own class and the opposite
// class, respectively, currently hold or wait for the lock.
//
// An expired slice with nobody on the other side restarts on the slice
// grid: its start advances by whole slices to the last grid point at or
// before now, so a class that arrives later waits out at most the
// remainder of one slice. The grid makes the restart independent of when
// the expiry is noticed: a lock that skips the controller on its fast
// path replays the skipped restarts with one call at its last fast
// operation and lands on the same clock as one that called at every
// operation.
//
// A fresh slice — one no acquisition has entered since the switch (see
// Enter) — whose class still wants the lock restarts on the grid the
// same way, whoever waits opposite: its class is waiting out the other
// class's drain (a writer behind readers that still hold), so the slice
// has not begun, and ending it would hand the lock back before the class
// ever held it.
func (c *RWController) MaybeSwitch(now time.Duration, curWants, otherWants bool) Phase {
	if !c.Expired(now) {
		return c.phase
	}
	if !otherWants || c.fresh && curWants {
		if sl := c.SliceLen(c.phase); sl > 0 {
			c.phaseStart += (now - c.phaseStart) / sl * sl
		} else {
			c.phaseStart = now
		}
		return c.phase
	}
	return c.ForceSwitch(now)
}

// ForceSwitch unconditionally starts the other class's slice at now (used
// by MaybeSwitch and by tests). The new slice is fresh until Enter.
func (c *RWController) ForceSwitch(now time.Duration) Phase {
	c.phase = c.phase.Other()
	c.phaseStart = now
	c.fresh = true
	return c.phase
}

// Enter records an acquisition by the current slice's class at now. The
// first one of a fresh slice restarts the slice's clock at now, so time
// spent draining the previous class does not eat into the new class's
// slice — keeping the configured ratio stable whatever the drain takes
// (paper Figure 12a: "irrespective of the number of readers, RW-SCL
// sticks to the ratio").
func (c *RWController) Enter(now time.Duration) {
	if c.fresh {
		c.phaseStart = now
		c.fresh = false
	}
}
