package cabdrv_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault/soak"
	"repro/internal/socket"
)

// TestPoisonedCopyRequestsChangeNothing is the use-after-release check for
// the driver's recycled copy-out requests and per-packet records. A request
// goes back to its free list the moment its requester has been told the
// outcome. Each case runs twice, once as built and once with every free
// list of its testbed in check mode, where a released request is zeroed and
// never reused: a completion still reaching it then panics, and a stale
// reader sees no packet. The cases cover concurrent copy-outs from many
// flows, SDMA retries, UDP datagram reads and adaptor resets that kill
// copy-outs in flight; each checked run must reproduce the plain run.
func TestPoisonedCopyRequestsChangeNothing(t *testing.T) {
	var cases []soak.Case
	for _, c := range soak.Matrix() {
		switch c.Name {
		case "tcp-clean", "tcp-dmafail", "tcp-64flow-drop", "udp-dup":
			cases = append(cases, c)
		}
	}
	if len(cases) != 4 {
		t.Fatalf("soak matrix no longer has the cases this test names: got %d of 4", len(cases))
	}
	for _, c := range cases {
		t.Run("soak/"+c.Name, func(t *testing.T) {
			sameInCheckMode(t, func(check bool) string {
				c.CheckPools = check
				o := soak.Run(c)
				if len(o.Failures) > 0 {
					t.Errorf("check=%v: %v", check, o.Failures)
				}
				return fmt.Sprint(o.Delivered, o.Report, string(o.MetricsJSON))
			})
		})
	}

	resets := 0
	for _, c := range soak.RecoverMatrix() {
		if !strings.HasPrefix(c.Name, "cabreset") || c.Mode != socket.ModeSingleCopy {
			continue
		}
		resets++
		t.Run("recover/"+c.Name, func(t *testing.T) {
			sameInCheckMode(t, func(check bool) string {
				c.CheckPools = check
				o := soak.RunRecover(c)
				if len(o.Failures) > 0 {
					t.Errorf("check=%v: %v", check, o.Failures)
				}
				var b bytes.Buffer
				fmt.Fprint(&b, o.Delivered, o.Resets, o.EndTime, o.FirstGoodputAt, o.Report)
				for _, f := range o.Flows {
					fmt.Fprint(&b, f.Delivered, f.Complete, f.SndErr, f.RcvErr)
				}
				return b.String()
			})
		})
	}
	if resets == 0 {
		t.Fatal("recover matrix has no single-copy cabreset case")
	}
}

// sameInCheckMode runs a case as built and then with its free lists in
// check mode, and fails if the two results differ.
func sameInCheckMode(t *testing.T, run func(check bool) string) {
	t.Helper()
	plain := run(false)
	if checked := run(true); checked != plain {
		t.Errorf("check mode changed the run\nplain:   %.400s\nchecked: %.400s", plain, checked)
	}
}
