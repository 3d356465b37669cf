package fault

import (
	"strings"
	"testing"
)

// FuzzParsePlan holds the fault-plan grammar to its contract on any input:
// it never panics; a rejected spec gets a positional error naming the plan
// (and, past the first split, the rule); an accepted plan has at least one
// rule, every rule a schedule or a time window, and no negative time or
// size — an overflowed duration is an error, not a window in the past.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"drop:every=13,min=1000",
		"corrupt:p=0.01;dup:every=97",
		"netmem:at=1ms,until=6ms;dmafail:burst=50+20",
		"partition:at=5ms,dur=20ms",
		"partition:at=5ms,dur=20ms,link=leaf0-spine1",
		"cabreset:at=8ms,node=1",
		"delay:window=1ms+2ms,delay=50us",
		"at=9999999999s",
		"drop:at=9999999999s",
		";;",
		"drop:every=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParsePlan(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "fault plan: ") {
				t.Fatalf("ParsePlan(%q): error %q lacks the positional prefix", spec, err)
			}
			return
		}
		if len(rules) == 0 {
			t.Fatalf("ParsePlan(%q) accepted an empty plan", spec)
		}
		for i, r := range rules {
			if r.When == nil && !statefulKind(r.Kind) {
				t.Fatalf("ParsePlan(%q): rule %d (%s) has no schedule", spec, i+1, r.Kind)
			}
			if r.From < 0 || r.Until < 0 || r.Dur < 0 || r.Delay < 0 || r.MinLen < 0 {
				t.Fatalf("ParsePlan(%q): rule %d has a negative time or size: %+v", spec, i+1, r)
			}
		}
	})
}
