package hippi_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cab"
	"repro/internal/cost"
	"repro/internal/fault/soak"
	"repro/internal/hippi"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// TestPoisonedBuffersChangeNothing is the use-after-release check for the
// recycled network and adaptor buffers (hippi.Network.Bufs) and the wire
// flights, adaptor packets and receive states around them. Each case runs
// twice, once as built and once with every free list of its testbed in
// check mode, where a released buffer is overwritten with 0xDB and never
// reused: a frame delivered twice, a header overlay racing the frame, a
// copy-out from a freed packet, or a reader of a dirty hand-out before it
// was written would then deliver garbage, which the soak oracles catch
// (every delivered byte is checked against the pattern). The checked run
// must also reproduce the plain run's telemetry snapshot, fault report and
// per-flow fates, which pin the order of events.
func TestPoisonedBuffersChangeNothing(t *testing.T) {
	cases := []soak.Case{{Name: "tcp-unmod-clean", Seed: 1, Proto: "tcp", Mode: socket.ModeUnmodified}}
	for _, c := range soak.Matrix() {
		switch c.Name {
		case "tcp-clean", "tcp-dup", "tcp-corrupt", "tcp-combined", "tcp-netmem", "tcp-unmod-corrupt", "udp-dup":
			cases = append(cases, c)
		}
	}
	if len(cases) != 8 {
		t.Fatalf("soak matrix no longer has the cases this test names: got %d of 8", len(cases))
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
		if !strings.HasPrefix(c.Name, "cabreset") {
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
		t.Fatal("recover matrix has no cabreset case")
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

// TestPoisonedDirectDelivery covers the one receive path no soak case
// reaches: under network-memory pressure a small frame is streamed to the
// host from the auto-DMA buffer and its bytes go straight back to the free
// list — after the copy, not before. In check mode the released frame is
// overwritten with 0xDB at once.
func TestPoisonedDirectDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.KillAll()
	net := hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond)
	net.CheckPools()
	a := cab.New(eng, cost.Alpha400(), net, 1, cab.DefaultConfig())
	b := cab.New(eng, cost.Alpha400(), net, 2, cab.DefaultConfig())
	b.SetReserve(b.TotalPages())
	b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
	var ev *cab.RxEvent
	b.OnRx = func(e *cab.RxEvent) { ev = e }

	data := bytes.Repeat([]byte{0x5a}, 300)
	pk, _ := a.AllocPacket(300)
	a.SDMA(&cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: [][]byte{data}, Owner: sendWhenFormed{a}})
	eng.Run()

	if ev == nil || ev.Pkt != nil || b.Stats.RxHdrDeliveries != 1 {
		t.Fatalf("frame was not delivered direct: ev=%v", ev)
	}
	if !bytes.Equal(ev.Buf[:ev.HdrLen], data) {
		t.Fatal("direct delivery handed the host a released buffer's bytes")
	}
}

// sendWhenFormed puts a packet on the wire to node 2 once its SDMA is done.
type sendWhenFormed struct{ c *cab.CAB }

func (s sendWhenFormed) SDMADone(req *cab.SDMAReq) { s.c.MDMATx(req.Pkt, 2, nil, nil) }
func (sendWhenFormed) SDMAFail(*cab.SDMAReq)       {}
