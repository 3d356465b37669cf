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
// recycled packet and frame buffers. Every buffer handed back to the free
// list is overwritten with 0xDB, so anything still reading it — a frame
// delivered twice, a header overlay racing the frame, a copy-out from a
// freed packet — or reading a dirty hand-out before writing it would
// deliver garbage. The soak cases check every delivered byte against the
// pattern themselves; on top of that each poisoned run must reproduce the
// clean run's telemetry snapshot, fault report and per-flow fates, which
// pin the order of events.
func TestPoisonedBuffersChangeNothing(t *testing.T) {
	twice := func(name string, run func() string) {
		t.Helper()
		clean := run()
		hippi.PoisonFreed(true)
		defer hippi.PoisonFreed(false)
		if poisoned := run(); poisoned != clean {
			t.Errorf("%s: poisoning released buffers changed the run\nclean:    %.400s\npoisoned: %.400s",
				name, clean, poisoned)
		}
	}

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
		if !strings.HasPrefix(c.Name, "cabreset") {
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
		t.Fatal("recover matrix has no cabreset case")
	}
}

// TestPoisonedDirectDelivery covers the one receive path no soak case
// reaches: under network-memory pressure a small frame is streamed to the
// host from the auto-DMA buffer and its bytes go straight back to the free
// list — after the copy, not before.
func TestPoisonedDirectDelivery(t *testing.T) {
	hippi.PoisonFreed(true)
	defer hippi.PoisonFreed(false)
	eng := sim.NewEngine(1)
	defer eng.KillAll()
	net := hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond)
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
