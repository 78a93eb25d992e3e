package main

import (
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	const ms = time.Millisecond
	if err := validate("uscl", 3, ms, 50*ms, 40); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if err := validate("ticket", 1, ms, ms, 0); err != nil {
		t.Fatalf("smallest valid values rejected: %v", err)
	}
	for _, c := range []struct {
		name          string
		lock          string
		threads, tail int
		cs, horizon   time.Duration
	}{
		{"bogus lock", "bogus", 3, 40, ms, 50 * ms},
		{"zero threads", "uscl", 0, 40, ms, 50 * ms},
		{"negative threads", "uscl", -1, 40, ms, 50 * ms},
		{"negative cs", "uscl", 3, 40, -ms, 50 * ms},
		{"zero cs", "uscl", 3, 40, 0, 50 * ms},
		{"zero horizon", "uscl", 3, 40, ms, 0},
		{"negative tail", "uscl", 3, -5, ms, 50 * ms},
	} {
		if err := validate(c.lock, c.threads, c.cs, c.horizon, c.tail); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}
