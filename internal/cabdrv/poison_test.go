package cabdrv_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cabdrv"
	"repro/internal/fault/soak"
	"repro/internal/socket"
)

// TestPoisonedCopyRequestsChangeNothing is the use-after-release check for
// the driver's recycled copy-out requests. A request goes back to the free
// list the moment its requester has been told the outcome; poisoned, a
// released request panics if a completion still reaches it, and shows no
// packet to a stale reader. The cases cover concurrent copy-outs from many
// flows, SDMA retries, UDP datagram reads and adaptor resets that kill
// copy-outs in flight; each poisoned run must reproduce the clean run.
func TestPoisonedCopyRequestsChangeNothing(t *testing.T) {
	twice := func(name string, run func() string) {
		t.Helper()
		clean := run()
		cabdrv.PoisonFreed(true)
		defer cabdrv.PoisonFreed(false)
		if poisoned := run(); poisoned != clean {
			t.Errorf("%s: poisoning released copy-out requests changed the run\nclean:    %.400s\npoisoned: %.400s",
				name, clean, poisoned)
		}
	}

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
		twice(c.Name, func() string {
			o := soak.Run(c)
			if len(o.Failures) > 0 {
				t.Errorf("%s: %v", c.Name, o.Failures)
			}
			return fmt.Sprint(o.Delivered, o.Report, string(o.MetricsJSON))
		})
	}

	resets := 0
	for _, c := range soak.RecoverMatrix() {
		if !strings.HasPrefix(c.Name, "cabreset") || c.Mode != socket.ModeSingleCopy {
			continue
		}
		resets++
		twice(c.Name, func() string {
			o := soak.RunRecover(c)
			if len(o.Failures) > 0 {
				t.Errorf("%s: %v", c.Name, o.Failures)
			}
			var b bytes.Buffer
			fmt.Fprint(&b, o.Delivered, o.Resets, o.EndTime, o.FirstGoodputAt, o.Report)
			for _, f := range o.Flows {
				fmt.Fprint(&b, f.Delivered, f.Complete, f.SndErr, f.RcvErr)
			}
			return b.String()
		})
	}
	if resets == 0 {
		t.Fatal("recover matrix has no single-copy cabreset case")
	}
}
