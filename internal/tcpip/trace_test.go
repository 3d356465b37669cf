package tcpip

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/wire"
)

func TestTracerObservesBothDirections(t *testing.T) {
	r := newRig(t, 30)
	var outEvents, inEvents []TraceEvent
	r.sa.Tracer = func(e TraceEvent) {
		if e.Dir == TraceOut {
			outEvents = append(outEvents, e)
		}
	}
	r.sb.Tracer = func(e TraceEvent) {
		if e.Dir == TraceIn {
			inEvents = append(inEvents, e)
		}
	}
	data := pattern(64*1024, 1)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("transfer broken: %d bytes", len(got))
	}
	if len(outEvents) == 0 || len(inEvents) == 0 {
		t.Fatalf("tracer saw out=%d in=%d events", len(outEvents), len(inEvents))
	}
	// The first outbound event is the SYN.
	syn := outEvents[0]
	if syn.TCP == nil || syn.TCP.Flags&wire.FlagSYN == 0 {
		t.Fatalf("first out event not a SYN: %v", syn)
	}
	// Every A-out data segment should be seen arriving at B.
	var outData, inData int
	for _, e := range outEvents {
		if e.TCP != nil && e.PayloadLen > 0 {
			outData++
		}
	}
	for _, e := range inEvents {
		if e.TCP != nil && e.PayloadLen > 0 {
			inData++
		}
	}
	if outData == 0 || inData != outData {
		t.Fatalf("data segments out=%d in=%d", outData, inData)
	}
}

func TestTraceEventString(t *testing.T) {
	ev := TraceEvent{
		Dir: TraceOut,
		IP:  wire.IPHdr{Src: 0x0a000001, Dst: 0x0a000002, Proto: wire.ProtoTCP},
		TCP: &wire.TCPHdr{SPort: 1000, DPort: 80, Seq: 7, Ack: 9,
			Flags: wire.FlagSYN | wire.FlagACK, Wnd: 100},
		PayloadLen: 0,
	}
	s := ev.String()
	for _, want := range []string{"10.0.0.1 > 10.0.0.2", "tcp 1000>80", "[S.]", "seq 7", "ack 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace line %q missing %q", s, want)
		}
	}
}

func TestTracerSeesUDPAndDescriptors(t *testing.T) {
	r := newRig(t, 31)
	var udpSeen bool
	r.sb.Tracer = func(e TraceEvent) {
		if e.UDP != nil && e.Dir == TraceIn {
			udpSeen = true
		}
	}
	rx, _ := r.sb.UDPBind(9100)
	r.eng.Go("rx", func(p *sim.Proc) { rx.RecvFrom(p) })
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		tx.SendTo(ctx, nil, 0, r.sb.Addr, 9100)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if !udpSeen {
		t.Fatal("tracer missed the UDP datagram")
	}
}

// TestSendStampAllocBudget pins the send stamps telemetry keeps per Append
// at zero heap objects in steady state: each write pushes one stamp and
// each acknowledgement drops the stamps it covers from the front of a
// ring, which stops growing at the depth of the data in flight.
func TestSendStampAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	r, cli, _ := livenessPair(t, 64)
	defer r.eng.KillAll()
	cli.stk.tr = new(obs.Trace) // telemetry on: Append records stamps
	const write, inFlight = 1000, 3
	step := func() {
		cli.sndLen += write // an Append
		cli.stampAppend()
		if cli.sndLen > inFlight*write { // the oldest write is acknowledged
			cli.sndUna += write
			cli.sndLen -= write
		}
		if _, ok := cli.stampAt(cli.sndUna); !ok {
			t.Fatal("no stamp for the first unacknowledged byte")
		}
	}
	for i := 0; i < 100; i++ {
		step()
	}
	// AllocsPerRun rounds down to whole objects per run, and a slice
	// resliced from the front reallocates only every few appends, so each
	// run is a hundred writes.
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			step()
		}
	}); n != 0 {
		t.Fatalf("a hundred steady-state Appends' stamps allocate %.0f objects, want 0", n)
	}
	if got := cli.sndStamps.Len(); got != inFlight {
		t.Fatalf("%d stamps held, want one per write in flight (%d)", got, inFlight)
	}
}
