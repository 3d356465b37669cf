// Package hippi models the HIPPI media the CAB attaches to: 100
// MByte/second point-to-point links through a switch (Section 2.1). The
// functional model serializes frames at line rate on the sender's and
// receiver's ports and applies a fixed propagation/switching delay; a
// separate slotted-crossbar model (hol.go) reproduces the head-of-line
// blocking analysis that motivates the CAB's logical channels.
package hippi

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/netobs"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/units"
)

// LineRate is the HIPPI line rate: 100 MByte/second.
const LineRate = 100 * units.MBytePerSec

// NodeID identifies a host port on the switch.
type NodeID int

// Frame is one media frame: a fully formed packet. Span, when telemetry or
// the data-touch ledger is enabled, carries the sender's data-path span
// across the wire, so the receiver continues it and its touches stay
// attributed.
//
// Ownership of Data moves with the frame. The sender gives it up at
// SendFrame (a CAB sends a private copy of the packet, never its network
// memory); the network may rewrite it in flight (injected corruption, ECN
// marking) and gives every duplicate it makes bytes of its own; a frame
// delivered to a receive callback belongs to that receiver. A CAB adopts
// Data as the arriving packet's network memory and later recycles it
// through Network.Bufs; hippi itself never recycles or reuses a buffer, so
// a dropped frame's bytes simply go to the garbage collector, and a
// plain-callback receiver that keeps or ignores Data is equally fine.
type Frame struct {
	Src, Dst NodeID
	Data     []byte
	Span     *obs.Span
	// Flow identifies the transport flow (data sender's local port) so the
	// receiving CAB's netmem arbiter can account staging pages per flow.
	// Zero means unattributed.
	Flow int
}

// Injector is the fault-injection hook consulted for every frame after
// source serialization (internal/fault provides the standard
// implementation). The injector may mutate f.Data in place (corruption)
// and returns a Verdict deciding the frame's fate. A nil injector is a
// clean wire.
type Injector interface {
	Frame(f *Frame) Verdict
}

// Verdict is an injector's decision for one frame. The zero value delivers
// the frame normally.
type Verdict struct {
	// Drop discards the frame.
	Drop bool
	// Dup delivers this many extra copies of the frame.
	Dup int
	// Delay adds extra propagation delay. Delayed frames bypass the
	// receive-port serialization (they took a different path through the
	// switch), so a delay longer than the inter-frame spacing reorders.
	Delay units.Time
}

// Network is a switch connecting host ports.
type Network struct {
	eng   *sim.Engine
	rate  units.Rate
	delay units.Time
	ports map[NodeID]*port

	// Inj, if set, is consulted for every frame after source
	// serialization (fault injection).
	Inj Injector

	// Bufs is the free list the attached adaptors draw packet and frame
	// buffers from and release them to. It lives here because the network
	// is the one object every adaptor of a testbed shares, so a buffer
	// released by the receiver is the next one the sender takes; hippi
	// itself only carries it (see Frame). Buffers are handed out dirty:
	// every taker overwrites all of one — a full-gather SDMA into a fresh
	// packet, or the MDMA engine's copy of a packet into a frame.
	Bufs pool.Bytes

	// flights is the free list of in-transit frame records.
	flights pool.List[flight]

	// Counters. Dropped is the total; DroppedInj (fault-injector drops),
	// DroppedUnattached (frames addressed to a node with no attached
	// port) and DroppedFull (trunk tail drops, below) split it by cause
	// and always sum to it.
	Sent, Delivered, Dropped, Duped int
	DroppedInj, DroppedUnattached   int
	BytesSent                       units.Size

	// Telemetry (nil when disabled): port-busy stalls on transmit and
	// receive — the head-of-line effects the logical channels address.
	txStalls, rxStalls *obs.Counter

	// Led records wire-transit data touches (nil when the ledger is off).
	Led *ledger.Hook

	// nobs records per-port busy/stall telemetry and per-flow
	// bytes-on-wire for the transport-dynamics observatory (nil when
	// netobs is off; every hook is then a nil no-op).
	nobs *netobs.WireRec

	// Multi-switch fabric state (multiswitch.go). All nil/zero for the
	// classic single-switch network, which keeps that path byte-identical:
	// with a nil placement every node lives on switch 0 and SendFrame
	// never takes the forwarding branch.
	placement func(NodeID) SwitchID
	trunks    []*trunk // by TrunkID
	route     RouteFunc
	linkInj   LinkInjector
	markECN   func([]byte) bool
	markDelay units.Time
	capDelay  units.Time

	// ECNMarked counts frames CE-marked by the fabric's queue-threshold
	// marker; DroppedFull counts trunk tail drops (SetQueueCap), part of
	// the Dropped-sum invariant above.
	ECNMarked   int
	DroppedFull int
}

// SetNetObs attaches the wire-telemetry recorder.
func (n *Network) SetNetObs(w *netobs.WireRec) { n.nobs = w }

// SetObs registers the network's counters on r under prefix (e.g. "hippi",
// "eth"). Safe to skip entirely; a nil registry is a no-op.
func (n *Network) SetObs(r *obs.Registry, prefix string) {
	if r == nil {
		return
	}
	r.Func(prefix+".frames_sent", func() int64 { return int64(n.Sent) })
	r.Func(prefix+".frames_delivered", func() int64 { return int64(n.Delivered) })
	r.Func(prefix+".frames_dropped", func() int64 { return int64(n.Dropped) })
	r.Func(prefix+".frames_dropped_inj", func() int64 { return int64(n.DroppedInj) })
	r.Func(prefix+".frames_dropped_unattached", func() int64 { return int64(n.DroppedUnattached) })
	r.Func(prefix+".frames_duped", func() int64 { return int64(n.Duped) })
	r.Func(prefix+".bytes_sent", func() int64 { return int64(n.BytesSent) })
	n.txStalls = r.Counter(prefix + ".tx_stalls")
	n.rxStalls = r.Counter(prefix + ".rx_stalls")
}

type port struct {
	recv        func(Frame)
	txBusyUntil units.Time
	rxBusyUntil units.Time
}

// NewNetwork returns a switch on engine eng with per-port line rate rate
// and fixed propagation/switching delay.
func NewNetwork(eng *sim.Engine, rate units.Rate, delay units.Time) *Network {
	return &Network{eng: eng, rate: rate, delay: delay, ports: make(map[NodeID]*port)}
}

// Attach registers the receive callback for node id. recv runs in event
// context at frame-arrival time.
func (n *Network) Attach(id NodeID, recv func(Frame)) {
	if _, dup := n.ports[id]; dup {
		panic(fmt.Sprintf("hippi: duplicate attach of node %d", id))
	}
	n.ports[id] = &port{recv: recv}
}

// Send transmits data from src to dst. The source port serializes the
// frame at line rate; sent (if non-nil) runs when the frame has fully left
// the source (the moment the sender's MDMA completes). Delivery to dst
// happens after the switch delay plus receive-side serialization.
func (n *Network) Send(src, dst NodeID, data []byte, sent func()) {
	n.SendFrame(Frame{Src: src, Dst: dst, Data: data}, sent)
}

// SendFrame is Send for a caller-built frame (which may carry a telemetry
// span across the wire).
func (n *Network) SendFrame(f Frame, sent func()) {
	sp, ok := n.ports[f.Src]
	if !ok {
		panic(fmt.Sprintf("hippi: send from unattached node %d", f.Src))
	}
	now := n.eng.Now()
	txTime := n.rate.TimeFor(units.Size(len(f.Data)))
	start := now
	if sp.txBusyUntil > start {
		start = sp.txBusyUntil
		n.txStalls.Inc()
	}
	end := start + txTime
	sp.txBusyUntil = end
	n.Sent++
	n.BytesSent += units.Size(len(f.Data))
	n.nobs.Tx(int(f.Src), int(f.Dst), f.Flow, len(f.Data), start-now, start, end)

	fl := n.newFlight(f, txTime)
	fl.sent = sent
	n.eng.AtKind(end, sim.KindWire, fl.next)
}

// flight is one frame in transit, from SendFrame until it is delivered
// or dropped: it comes from the network's free list and goes back at every
// terminal path (delivery, an injected or partition drop, a trunk tail
// drop, an unattached or unrouteable destination). Every wire event of the
// frame runs the record's next, bound once when the record is first made
// and kept across reuse; the stage says which event that is. The record
// holds the one copy of the frame the network rewrites in flight (injected
// corruption, ECN marks).
type flight struct {
	n      *Network
	f      Frame
	stage  flightStage
	txTime units.Time
	// extra is the injector's added delay, carried to the last hop.
	extra units.Time
	sent  func()
	// at is the switch the trunk being crossed leads to, dstSw the
	// destination's switch (stageTrunk); dp the destination port
	// (stageArrive).
	at, dstSw SwitchID
	dp        *port
	next      func()
}

type flightStage uint8

const (
	stageSource flightStage = iota // serializing at the source port
	stageTrunk                     // crossing a trunk
	stageArrive                    // serializing into the destination port
)

func (n *Network) newFlight(f Frame, txTime units.Time) *flight {
	fl := n.flights.Get()
	*fl = flight{n: n, f: f, txTime: txTime, next: fl.next}
	if fl.next == nil {
		fl.next = fl.step
	}
	return fl
}

// drop ends a frame lost in the network: counted under the total and, by
// cause, injected (fault or partition) or not (unattached, unrouteable).
func (n *Network) drop(fl *flight, injected bool) {
	n.Dropped++
	if injected {
		n.DroppedInj++
	} else {
		n.DroppedUnattached++
	}
	n.nobs.Drop(injected)
	n.flights.Put(fl)
}

// CheckPools puts the network's free lists in check mode (tests; see
// internal/pool).
func (n *Network) CheckPools() {
	n.Bufs.Check()
	n.flights.Check(nil)
}

// dup returns a record for a copy of fl's frame with bytes of its own:
// each receiver keeps the Data it is handed, and must not see its twin
// rewritten under it.
func (fl *flight) dup() *flight {
	f := fl.f
	f.Data = bytes.Clone(f.Data)
	d := fl.n.newFlight(f, fl.txTime)
	d.extra = fl.extra
	return d
}

func (fl *flight) step() {
	switch fl.stage {
	case stageSource:
		fl.n.leftSource(fl)
	case stageTrunk:
		fl.n.crossedTrunk(fl)
	case stageArrive:
		fl.n.delivered(fl)
	}
}

// leftSource runs when the frame has fully left the source port: the
// sender's completion, the injector's verdict, then the same-switch
// delivery or the first trunk hop.
func (n *Network) leftSource(fl *flight) {
	if fl.sent != nil {
		fl.sent()
	}
	var v Verdict
	if n.Inj != nil {
		v = n.Inj.Frame(&fl.f)
	}
	if v.Drop {
		n.drop(fl, true)
		return
	}
	fl.extra = v.Delay
	if asw, bsw := n.switchOf(fl.f.Src), n.switchOf(fl.f.Dst); asw != bsw {
		n.forward(fl, v.Dup, asw, bsw)
		return
	}
	dp, ok := n.ports[fl.f.Dst]
	if !ok {
		n.drop(fl, false)
		return
	}
	for i := 0; i < v.Dup; i++ {
		n.Duped++
		n.arrive(fl.dup(), dp, false)
	}
	n.arrive(fl, dp, false)
}

// arrive schedules the frame's delivery at port dp: switch delay,
// receive-side serialization unless the injector delayed the frame off the
// fast path, final wire-transit charge. fabric is true for a frame that
// crossed trunks: its last hop is then subject to ECN marking like the
// others.
func (n *Network) arrive(fl *flight, dp *port, fabric bool) {
	f, txTime := &fl.f, fl.txTime
	arriveStart := n.eng.Now() + n.delay + fl.extra
	var rxStall units.Time
	if fl.extra == 0 {
		if dp.rxBusyUntil > arriveStart {
			rxStall = dp.rxBusyUntil - arriveStart
			arriveStart = dp.rxBusyUntil
			n.rxStalls.Inc()
		}
		dp.rxBusyUntil = arriveStart + txTime
	}
	if fabric && n.markECN != nil && rxStall >= n.markDelay && n.markECN(f.Data) {
		n.ECNMarked++
	}
	n.nobs.Rx(int(f.Dst), len(f.Data), rxStall, arriveStart, arriveStart+txTime)
	fl.stage, fl.dp = stageArrive, dp
	n.eng.AtKind(arriveStart+txTime, sim.KindWire, fl.next)
}

// delivered hands the frame to its receiver.
func (n *Network) delivered(fl *flight) {
	n.Delivered++
	f, dp := fl.f, fl.dp
	n.flights.Put(fl)
	n.Led.TouchP(f.Span, 0, units.Size(len(f.Data)), ledger.WireTransit, ledger.LayerWire, 0)
	dp.recv(f)
}
