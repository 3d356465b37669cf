package fabric

import (
	"strings"
	"testing"
)

// FuzzParseTopology holds the topology grammar to its contract on any
// input: it never panics, a rejected spec gets the error that names it and
// the grammar, and an accepted one prints back to a spec that parses to
// the same topology.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"single", "linear:3", "leafspine:4x1", "fattree:4x2", "leafspine:+2x1", "linear:", "x:1x1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tp, err := Parse(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "bad topology ") {
				t.Fatalf("Parse(%q): error %q does not name the bad spec", spec, err)
			}
			return
		}
		back, err := Parse(tp.String())
		if err != nil || back != tp {
			t.Fatalf("Parse(%q) = %+v prints as %q, which parses to %+v, %v", spec, tp, tp.String(), back, err)
		}
	})
}
