package mbuf_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fault/soak"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestPoisonedClustersChangeNothing is the use-after-release check for
// recycled mbuf headers and cluster storage on the paths that live in
// clusters: the unmodified stack's copy-in, its retransmissions out of the
// socket buffer (segments share clusters with it by reference) and the
// legacy driver's receive DMA. Each case runs twice, once as built and once
// with every free list of its testbed in check mode, where a released
// cluster is overwritten with 0xDB and never reused: a segment still queued
// at the driver when its cluster went back, or a reader of a dirty hand-out
// beyond what was written, would then put garbage on the wire or in the
// user's buffer, which the soak oracles catch (every delivered byte is
// checked against the pattern). The checked run must also reproduce the
// plain run's report and telemetry snapshot, which pin the order of events.
func TestPoisonedClustersChangeNothing(t *testing.T) {
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

	recovers := 0
	for _, c := range soak.RecoverMatrix() {
		if c.Mode != socket.ModeUnmodified {
			continue
		}
		recovers++
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
	if recovers == 0 {
		t.Fatal("recover matrix has no unmodified-stack case")
	}

	t.Run("ttcp-unmod", func(t *testing.T) {
		sameInCheckMode(t, func(check bool) string {
			tb := core.NewTestbed(7)
			if check {
				tb.CheckPools()
			}
			a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: socket.ModeUnmodified, CABNode: 1})
			b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: socket.ModeUnmodified, CABNode: 2})
			tb.RouteCAB(a, b)
			res := ttcp.Run(tb, a, b, ttcp.Params{
				Total: 4 * units.MB, RWSize: 64 * units.KB, WithUtil: true, WithBackground: true,
			})
			return fmt.Sprintf("%+v", res)
		})
	})

	// The single-copy path's descriptors: each write's uiowCABhdrs go back
	// to the host's pool, and its tracker (which holds the write's UIO) is
	// parked, once the write's DMAs are all done and no M_UIO mbuf points
	// at the headers any more. In check mode a released
	// header's owner panics when notified, and a parked tracker's UIO is
	// zeroed, so a descriptor or segment copy that outlived its write fails
	// at the access. Wire drops make the sender retransmit out of the send
	// buffer; a network-memory window longer than the retransmission limit
	// times the connection out with segment copies still queued at the
	// driver, which must find their headers marked abandoned and drop.
	for _, tc := range []struct {
		name, plan string
		abandon    bool
	}{
		{"ttcp-single-drop", "drop:every=13,min=1000", false},
		{"ttcp-single-abandon", "netmem:at=5ms,dur=25s", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sameInCheckMode(t, func(check bool) string {
				tb := core.NewTestbed(7)
				if check {
					tb.CheckPools()
				}
				inj := fault.New(tb.Eng, 1)
				if err := inj.AddPlan(tc.plan); err != nil {
					t.Fatal(err)
				}
				tb.EnableFaults(inj)
				a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: socket.ModeSingleCopy, CABNode: 1})
				b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: socket.ModeSingleCopy, CABNode: 2})
				tb.RouteCAB(a, b)
				res := ttcp.Run(tb, a, b, ttcp.Params{
					Total: 1 * units.MB, RWSize: 64 * units.KB, WithUtil: true, WithBackground: true, Tolerant: true,
				})
				if a.Stk.Stats.TCPRetransmits == 0 {
					t.Error("no retransmissions: the fault missed the data path")
				}
				if tc.abandon && a.Drv.Stats.TxAbandoned == 0 {
					t.Error("no queued segment copy outlived the connection")
				}
				return fmt.Sprintf("%+v %+v %+v", res, a.Stk.Stats, a.Drv.Stats)
			})
		})
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
