package obs_test

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/units"
)

// TestCritRecBoundDropsEvents: the causal recorder's log is bounded where
// its int32 ids run out. Past the bound Ev and EvJoin return 0, the "no
// event" id, count the drop and record no slack edge; MarkDone ignores
// the 0, and the critical-path report says the graph is truncated.
func TestCritRecBoundDropsEvents(t *testing.T) {
	var now units.Time
	r := obs.NewCritRecBounded(func() units.Time { return now }, 3)
	c := obs.ChainOn(r, "A", 1)
	for _, kind := range []string{"write_start", "tcp_output", "read_done"} {
		now += 10
		if c.Ev(obs.CauseCPU, kind, 0, 1) == 0 {
			t.Fatalf("%s dropped below the bound", kind)
		}
	}
	c.MarkDone()
	now += 10
	if id := c.Ev(obs.CauseCPU, "late", 0, 1); id != 0 {
		t.Fatalf("event past the bound got id %d, want 0", id)
	}
	if id := r.EvJoin(1, obs.CauseCPU, 2, obs.CauseQueue, "late_join", "A", 1, 0, 1); id != 0 {
		t.Fatalf("join past the bound got id %d, want 0", id)
	}
	c.MarkDone() // the cursor is 0 now: a no-op
	if r.Len() != 3 || r.Dropped() != 2 || len(r.Alts()) != 0 {
		t.Fatalf("len %d dropped %d alts %d, want 3, 2, 0", r.Len(), r.Dropped(), len(r.Alts()))
	}

	rep := critpath.Analyze(r)
	if len(rep.Paths) != 1 || rep.Dropped != 2 {
		t.Fatalf("report: %d paths, %d dropped; want 1 and 2", len(rep.Paths), rep.Dropped)
	}
	if s := rep.String(); !strings.Contains(s, "graph truncated: 2 events dropped") {
		t.Fatalf("report does not say the graph is truncated:\n%s", s)
	}
	if s := critpath.Analyze(obs.NewCritRecBounded(func() units.Time { return 0 }, 3)).String(); strings.Contains(s, "truncated") {
		t.Fatalf("a complete graph reported as truncated:\n%s", s)
	}
}
