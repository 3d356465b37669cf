package cab

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/units"
)

// logOwner records how each of its requests ended, and when.
type logOwner struct {
	e    *sim.Engine
	name string
	log  *[]string
}

func (o logOwner) SDMADone(*SDMAReq) {
	*o.log = append(*o.log, fmt.Sprintf("%s done@%v", o.name, o.e.Now()))
}
func (o logOwner) SDMAFail(*SDMAReq) {
	*o.log = append(*o.log, fmt.Sprintf("%s fail@%v", o.name, o.e.Now()))
}

// A transfer the fault hook fails has occupied the bus and goes to the
// back of the queue; the engine goes on with the next request. A fault
// that never clears is declared persistent.
func TestSDMARetryUnderFault(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	var log []string
	data := bytes.Repeat([]byte{0x5a}, 8<<10)
	pkA, _ := a.AllocPacket(8 * units.KB)
	pkB, _ := a.AllocPacket(8 * units.KB)
	attempts := 0
	a.FaultSDMA = func() bool { attempts++; return attempts == 1 || attempts == 3 }
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pkA, Gather: [][]byte{data}, Owner: logOwner{e, "A", &log}})
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pkB, Gather: [][]byte{data}, Owner: logOwner{e, "B", &log}})
	e.Run()
	d := a.Mach.DMATime(8 * units.KB)
	// A fails, B completes, A fails again, A completes.
	if want := fmt.Sprint([]string{fmt.Sprintf("B done@%v", 2*d), fmt.Sprintf("A done@%v", 4*d)}); fmt.Sprint(log) != want {
		t.Fatalf("outcomes %v, want %v", log, want)
	}
	if a.Stats.SDMAFails != 2 || a.Stats.SDMAOps != 2 || a.Stats.SDMABytes != 16*units.KB {
		t.Fatalf("fails %d ops %d bytes %v, want 2, 2, 16KB", a.Stats.SDMAFails, a.Stats.SDMAOps, a.Stats.SDMABytes)
	}
	if !bytes.Equal(pkA.Bytes(), data) || !bytes.Equal(pkB.Bytes(), data) {
		t.Fatal("a retried transfer left the packet wrong")
	}

	a.FaultSDMA = func() bool { return true }
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pkA, Gather: [][]byte{data}})
	defer func() {
		if r := recover(); r != "cab: SDMA fault persisted past retry limit" {
			t.Fatalf("recovered %v, want the retry-limit panic", r)
		}
	}()
	e.Run()
	t.Fatal("a persistent SDMA fault did not panic")
}

// A firmware reset kills the queued descriptors at once and the one in
// service when its bus time ends; the engine then serves new requests.
func TestSDMAResetMidTransfer(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	var log []string
	data := make([]byte, 32<<10)
	pk1, _ := a.AllocPacket(32 * units.KB)
	pk2, _ := a.AllocPacket(32 * units.KB)
	d := a.Mach.DMATime(32 * units.KB)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk1, Gather: [][]byte{data}, Owner: logOwner{e, "in-service", &log}})
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk2, Gather: [][]byte{data}, Owner: logOwner{e, "queued", &log}})
	e.At(d/2, a.Reset)
	e.Run()
	want := fmt.Sprint([]string{fmt.Sprintf("queued fail@%v", d/2), fmt.Sprintf("in-service fail@%v", d)})
	if fmt.Sprint(log) != want {
		t.Fatalf("outcomes %v, want %v", log, want)
	}
	if a.Stats.SDMAKilled != 2 || a.Stats.SDMAOps != 0 {
		t.Fatalf("killed %d ops %d, want 2, 0", a.Stats.SDMAKilled, a.Stats.SDMAOps)
	}
	pk3, _ := a.AllocPacket(32 * units.KB)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk3, Gather: [][]byte{data}, Owner: logOwner{e, "after", &log}})
	e.Run()
	if got := log[len(log)-1]; got != fmt.Sprintf("after done@%v", 2*d) {
		t.Fatalf("after the reset: %s, want done@%v", got, 2*d)
	}
}

// A packet the host frees while its frame waits on a channel is dropped
// by the MDMA engine, which goes on with the next frame.
func TestMDMASkipsFreedPacket(t *testing.T) {
	e, _, a, b := testRig()
	defer e.KillAll()
	for i := 0; i < 3; i++ {
		b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
	}
	var got []units.Size
	b.OnRx = func(ev *RxEvent) { got = append(got, ev.Len) }
	var sent []units.Size
	done := func(pk *Packet) { sent = append(sent, pk.Len()) }
	var pks []*Packet
	for _, n := range []units.Size{1000, 2000, 3000} {
		pk, _ := a.AllocPacket(n)
		pks = append(pks, pk)
		a.MDMATx(pk, 2, nil, done)
	}
	e.At(1, pks[1].Free) // while the first frame is on the wire
	e.Run()
	if fmt.Sprint(sent) != "[1000B 3000B]" || fmt.Sprint(got) != "[1000B 3000B]" {
		t.Fatalf("sent %v, received %v; want the freed 2000-byte packet skipped", sent, got)
	}
	if a.Stats.TxPackets != 2 {
		t.Fatalf("tx packets %d, want 2", a.Stats.TxPackets)
	}
}

// The MDMA engine serves the eight logical channels round-robin, one
// frame at a time: frames posted one destination after another leave
// interleaved across channels, each once the previous one has left.
func TestLogicalChannelRoundRobin(t *testing.T) {
	e := sim.NewEngine(1)
	n := hippi.NewNetwork(e, hippi.LineRate, 0)
	a := New(e, cost.Alpha400(), n, 1, DefaultConfig())
	defer e.KillAll()
	var order []hippi.NodeID
	var at []units.Time
	for id := hippi.NodeID(2); id <= 9; id++ {
		n.Attach(id, func(f hippi.Frame) {
			order = append(order, id)
			at = append(at, e.Now())
		})
	}
	for id := hippi.NodeID(2); id <= 9; id++ {
		for k := 0; k < 3; k++ {
			pk, _ := a.AllocPacket(1000)
			a.MDMATx(pk, id, nil, (*Packet).Free)
		}
	}
	e.Run()
	// Channel = destination mod 8, served from channel 0.
	round := []hippi.NodeID{8, 9, 2, 3, 4, 5, 6, 7}
	want := append(append(append([]hippi.NodeID{}, round...), round...), round...)
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", order, want)
	}
	gap := hippi.LineRate.TimeFor(1000)
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] != gap {
			t.Fatalf("frame %d arrived %v after the previous one, want one serialization time %v", i, at[i]-at[i-1], gap)
		}
	}
	if a.FreePages() != a.TotalPages() || a.Stats.TxPackets != 24 {
		t.Fatalf("%d of %d pages free, %d frames sent", a.FreePages(), a.TotalPages(), a.Stats.TxPackets)
	}
}

// sendOnDone posts each completed transfer's packet for transmission.
type sendOnDone struct{ c *CAB }

func (o sendOnDone) SDMADone(r *SDMAReq) { o.c.MDMATx(r.Pkt, 2, nil, nil) }
func (sendOnDone) SDMAFail(*SDMAReq)     {}

// TestEngineStepsAllocNothing pins the two engines' steps at zero
// allocations: one SDMA transfer plus one MDMA frame cost exactly what the
// bare wire send inside them costs (the network's in-flight record).
func TestEngineStepsAllocNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := sim.NewEngine(1)
	n := hippi.NewNetwork(e, hippi.LineRate, 5*units.Microsecond)
	a := New(e, cost.Alpha400(), n, 1, DefaultConfig())
	defer e.KillAll()
	frames := 0
	n.Attach(2, func(f hippi.Frame) {
		frames++
		n.Bufs.Put(f.Data)
	})
	pk, _ := a.AllocPacket(8 * units.KB)
	req := &SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{make([]byte, 8<<10)}, Owner: sendOnDone{a}}
	transfer := func() {
		a.SDMA(req)
		e.Run()
	}
	send := func() {
		n.Send(1, 2, n.Bufs.Get(8<<10), nil)
		e.Run()
	}
	for i := 0; i < 64; i++ {
		transfer()
		send()
	}
	wire := testing.AllocsPerRun(500, send)
	if got := testing.AllocsPerRun(500, transfer); got != wire {
		t.Errorf("an SDMA transfer plus its frame: %v allocs, the bare wire send %v; the engines must add none", got, wire)
	}
	if frames == 0 || a.Stats.SDMAOps == 0 || a.Stats.TxPackets == 0 {
		t.Fatalf("frames %d, sdma ops %d, tx packets %d", frames, a.Stats.SDMAOps, a.Stats.TxPackets)
	}
}
