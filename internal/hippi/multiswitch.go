// Multi-switch fabrics. The classic Network is one switch: every attached
// node is a port on it and SendFrame serializes source → switch delay →
// destination. This file removes that single-switch assumption without
// touching the single-switch path: nodes are placed on switches, switches
// are joined by named trunks, and a route function picks the next trunk
// (by its TrunkID) for each (frame, switch) pair. Topology assembly, ECMP
// hashing, and ECN marking policy live in internal/fabric; this file is
// only the per-hop mechanics (serialization, HOL coupling, telemetry,
// ledger charges).
package hippi

import (
	"fmt"
	"sort"

	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// SwitchID identifies one switch in a fabric. The zero value is the
// classic single switch: with no placement installed every node is on
// switch 0 and no frame ever crosses a trunk.
type SwitchID int

// TrunkID identifies a trunk: its index in AddTrunk order.
type TrunkID int

// NoTrunk is the route answer for an unrouteable frame.
const NoTrunk TrunkID = -1

// RouteFunc picks the trunk a frame leaves switch at on, given the frame
// and the destination's switch. Returning NoTrunk drops the frame as
// unrouteable (counted under DroppedUnattached).
type RouteFunc func(f *Frame, at, dstSw SwitchID) TrunkID

// LinkInjector is the fault-injection hook for fabric trunks: it is asked,
// per frame, whether the named link is partitioned at time now. The
// standard implementation is internal/fault's Injector (partition rules
// with link=NAME).
type LinkInjector interface {
	LinkDown(name string, now units.Time) bool
}

// trunk is one bidirectional inter-switch link. Each direction serializes
// independently at the network's line rate (a trunk is a pair of
// unidirectional HIPPI channels, like a host port).
type trunk struct {
	name string
	a, b SwitchID
	id   TrunkID
	// port names the two directions for telemetry (name+">" for a→b,
	// name+"<" for b→a).
	port [2]string

	busyUntil [2]units.Time // per direction: 0 = a→b, 1 = b→a
	bytes     [2]units.Size
	frames    [2]int
	drops     [2]int
}

// TrunkStat is one trunk's byte/frame counters, for reports and the ECMP
// share tests.
type TrunkStat struct {
	Name     string     `json:"name"`
	AB       units.Size `json:"ab_bytes"`
	BA       units.Size `json:"ba_bytes"`
	FramesAB int        `json:"ab_frames"`
	FramesBA int        `json:"ba_frames"`
	DropsAB  int        `json:"ab_drops,omitempty"`
	DropsBA  int        `json:"ba_drops,omitempty"`
}

// trunkPortBase namespaces the synthetic netobs port ids assigned to trunk
// directions, far above any host NodeID, so fabric telemetry can never
// collide with a host port in the recorder.
const trunkPortBase = 1 << 16

// SetPlacement installs the node → switch map. A nil placement (the
// default) keeps every node on switch 0.
func (n *Network) SetPlacement(place func(NodeID) SwitchID) { n.placement = place }

func (n *Network) switchOf(id NodeID) SwitchID {
	if n.placement == nil {
		return 0
	}
	return n.placement(id)
}

// AddTrunk joins switches a and b with a named bidirectional link and
// returns the id route functions name it by.
func (n *Network) AddTrunk(name string, a, b SwitchID) TrunkID {
	for _, t := range n.trunks {
		if t.name == name {
			panic(fmt.Sprintf("hippi: duplicate trunk %q", name))
		}
	}
	t := &trunk{name: name, a: a, b: b, id: TrunkID(len(n.trunks)),
		port: [2]string{name + ">", name + "<"}}
	n.trunks = append(n.trunks, t)
	return t.id
}

// TrunkName returns the name trunk id was added under.
func (n *Network) TrunkName(id TrunkID) string { return n.trunks[id].name }

// SetRoute installs the per-hop routing function.
func (n *Network) SetRoute(r RouteFunc) { n.route = r }

// SetLinkInjector installs the trunk partition hook.
func (n *Network) SetLinkInjector(li LinkInjector) { n.linkInj = li }

// SetECN installs queue-threshold CE marking on fabric hops: when a frame
// queues behind threshold bytes or more of backlog (measured as stall time
// at the hop's serializer), mark is asked to CE-mark the frame in place.
// mark returns whether it marked (ECT frames only); internal/fabric
// provides the standard marker, which rewrites the IP header checksum.
func (n *Network) SetECN(threshold units.Size, mark func([]byte) bool) {
	n.markDelay = n.rate.TimeFor(threshold)
	n.markECN = mark
}

// SetQueueCap bounds each trunk direction's output queue to cap bytes of
// backlog (a switch's per-port buffer). A frame arriving to a deeper
// backlog is tail-dropped and counted under DroppedFull — the loss that
// turns fabric congestion into retransmissions instead of unbounded
// queueing delay. Zero (the default) keeps trunks lossless.
func (n *Network) SetQueueCap(cap units.Size) {
	n.capDelay = n.rate.TimeFor(cap)
}

// TrunkStats returns the per-trunk byte/frame counters, sorted by name.
func (n *Network) TrunkStats() []TrunkStat {
	out := make([]TrunkStat, 0, len(n.trunks))
	for _, t := range n.trunks {
		out = append(out, TrunkStat{
			Name: t.name,
			AB:   t.bytes[0], BA: t.bytes[1],
			FramesAB: t.frames[0], FramesBA: t.frames[1],
			DropsAB: t.drops[0], DropsBA: t.drops[1],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// forward carries a frame that must cross switches. Runs in event context
// at the moment the frame has fully left the source port (where the
// single-switch path would deliver), after the injector's verdict. Each of
// the injector's dups extra copies is forwarded independently with bytes
// of its own (hops mark ECN in place). The original travels last, so
// every copy is taken before a hop can mark it.
func (n *Network) forward(fl *flight, dups int, sw, dstSw SwitchID) {
	for i := 0; i < dups; i++ {
		n.Duped++
		n.hop(fl.dup(), sw, dstSw)
	}
	n.hop(fl, sw, dstSw)
}

// hop moves the frame one trunk closer to dstSw: route lookup, partition
// check, switch delay, serialization onto the trunk (each trunk direction
// serializes independently, VOQ-like, so a hot uplink never blocks a cold
// one) with optional ECN marking, then either the next hop or final
// delivery.
func (n *Network) hop(fl *flight, sw, dstSw SwitchID) {
	f := &fl.f
	id := NoTrunk
	if n.route != nil {
		id = n.route(f, sw, dstSw)
	}
	if id == NoTrunk {
		n.drop(fl, false)
		return
	}
	t := n.trunks[id]
	now := n.eng.Now()
	if n.linkInj != nil && n.linkInj.LinkDown(t.name, now) {
		n.drop(fl, true)
		return
	}
	dir := 0
	next := t.b
	if sw == t.b {
		dir, next = 1, t.a
	}
	start := now + n.delay
	var stall units.Time
	if t.busyUntil[dir] > start {
		stall = t.busyUntil[dir] - start
	}
	if n.capDelay > 0 && stall > n.capDelay {
		t.drops[dir]++
		n.Dropped++
		n.DroppedFull++
		n.nobs.DropFull()
		n.flights.Put(fl)
		return
	}
	if stall > 0 {
		start = t.busyUntil[dir]
		n.txStalls.Inc()
	}
	end := start + fl.txTime
	t.busyUntil[dir] = end
	t.bytes[dir] += units.Size(len(f.Data))
	t.frames[dir]++
	if n.markECN != nil && stall >= n.markDelay && n.markECN(f.Data) {
		n.ECNMarked++
	}
	n.nobs.Trunk(trunkPortBase+2*int(t.id)+dir, t.port[dir], len(f.Data), stall, start, end)
	fl.stage, fl.at, fl.dstSw = stageTrunk, next, dstSw
	n.eng.AtKind(end, sim.KindWire, fl.next)
}

// crossedTrunk runs when the frame has left a trunk: the next hop, or the
// last one to the host port once the frame has reached the destination's
// switch, exactly as the single-switch tail does.
func (n *Network) crossedTrunk(fl *flight) {
	n.Led.TouchP(fl.f.Span, 0, units.Size(len(fl.f.Data)), ledger.WireTransit, ledger.LayerWire, 0)
	if fl.at != fl.dstSw {
		n.hop(fl, fl.at, fl.dstSw)
		return
	}
	dp, ok := n.ports[fl.f.Dst]
	if !ok {
		n.drop(fl, false)
		return
	}
	n.arrive(fl, dp, true)
}
