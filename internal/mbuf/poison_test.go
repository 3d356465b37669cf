package mbuf_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault/soak"
	"repro/internal/mbuf"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestPoisonedClustersChangeNothing is the use-after-release check for
// recycled cluster storage on the paths that live in clusters: the
// unmodified stack's copy-in, its retransmissions out of the socket buffer
// (segments share clusters with it by reference) and the legacy driver's
// receive DMA. Every cluster returned to the free list is overwritten with
// 0xDB, so a segment still queued at the driver when its cluster went
// back, or a reader of a dirty hand-out beyond what was written, would put
// garbage on the wire or in the user's buffer. The soak cases check every
// delivered byte against the pattern themselves; beyond that each poisoned
// run must reproduce the clean run's report and telemetry snapshot, which
// pin the order of events.
func TestPoisonedClustersChangeNothing(t *testing.T) {
	twice := func(name string, run func() string) {
		t.Helper()
		clean := run()
		mbuf.PoisonFreed(true)
		defer mbuf.PoisonFreed(false)
		if poisoned := run(); poisoned != clean {
			t.Errorf("%s: poisoning released clusters changed the run\nclean:    %.400s\npoisoned: %.400s",
				name, clean, poisoned)
		}
	}

	cases := []soak.Case{{Name: "tcp-unmod-clean", Seed: 1, Proto: "tcp", Mode: socket.ModeUnmodified}}
	for _, c := range soak.Matrix() {
		switch c.Name {
		case "tcp-unmod-drop", "tcp-unmod-corrupt", "udp-unmod-drop":
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

	recovers := 0
	for _, c := range soak.RecoverMatrix() {
		if c.Mode != socket.ModeUnmodified {
			continue
		}
		recovers++
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
	if recovers == 0 {
		t.Fatal("recover matrix has no unmodified-stack case")
	}

	twice("ttcp-unmod", func() string {
		tb := core.NewTestbed(7)
		a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: socket.ModeUnmodified, CABNode: 1})
		b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: socket.ModeUnmodified, CABNode: 2})
		tb.RouteCAB(a, b)
		res := ttcp.Run(tb, a, b, ttcp.Params{
			Total: 4 * units.MB, RWSize: 64 * units.KB, WithUtil: true, WithBackground: true,
		})
		return fmt.Sprintf("%+v", res)
	})
}
