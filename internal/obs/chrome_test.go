package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/critpath"
	"repro/internal/obs/netobs"
	"repro/internal/units"
)

// TestOneChromeFormat holds the three Chrome trace files to one format:
// the span trace, a critical-path report and a netobs dump each parse as
// {"traceEvents":[…]} and end in a newline, every event carries name, ph,
// ts, pid and dur, and every "X" event's dur is not negative.
func TestOneChromeFormat(t *testing.T) {
	var now units.Time
	clock := func() units.Time { return now }

	tel := obs.New(clock)
	sp := tel.Trace().StartSpanAt("A", 0)
	sp.EnterAt(obs.StageSocket, 0)
	now = 5 * units.Microsecond
	sp.EnterOn(obs.StageWire, "B")
	tel.Trace().Event("fault", "drop", "fault.drop")
	now = 9 * units.Microsecond
	sp.End()

	crit := obs.NewCritRec(clock)
	now = 0
	a := crit.Ev(0, obs.CauseApp, obs.EvWriteStart, crit.Bind("A"), 1, 0, 8)
	now = units.Microsecond
	crit.MarkDone(crit.Ev(a, obs.CauseWire, obs.EvReadDone, crit.Bind("B"), 1, 0, 8))

	rec := netobs.New(clock)
	rec.Flow("A", 1, 100, 5001).Note(netobs.FlowState{Cwnd: 65536})
	rec.Wire("hippi", units.Millisecond).Tx(1, 2, 100, 4096, 0, 0, units.Microsecond)

	for _, c := range []struct {
		name   string
		file   []byte
		phases string
	}{
		{"span trace", tel.Chrome(), "X s f i"},
		{"critical paths", critpath.Analyze(crit).ChromeJSON(), "X i"},
		{"netobs", rec.Chrome(), "C"},
	} {
		if !bytes.HasSuffix(c.file, []byte("}\n")) {
			t.Errorf("%s: file does not end in a newline: %q", c.name, c.file[max(len(c.file)-8, 0):])
		}
		var f map[string][]map[string]any
		if err := json.Unmarshal(c.file, &f); err != nil || len(f) != 1 || len(f["traceEvents"]) == 0 {
			t.Errorf("%s: want {\"traceEvents\":[…]}, got %s (%v)", c.name, c.file, err)
			continue
		}
		seen := map[any]bool{}
		for _, ev := range f["traceEvents"] {
			for _, k := range []string{"name", "ph", "ts", "pid", "dur"} {
				if _, ok := ev[k]; !ok {
					t.Errorf("%s: event %v has no %s", c.name, ev, k)
				}
			}
			if dur, _ := ev["dur"].(float64); ev["ph"] == "X" && dur < 0 {
				t.Errorf("%s: complete event %v has a negative dur", c.name, ev)
			}
			seen[ev["ph"]] = true
		}
		for _, ph := range bytes.Fields([]byte(c.phases)) {
			if !seen[string(ph)] {
				t.Errorf("%s: no %q event in %s", c.name, ph, c.file)
			}
		}
	}
}
