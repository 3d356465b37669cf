// Package netobs is the transport-dynamics observatory: a deterministic,
// virtual-time recorder for how congestion state and wire contention
// *evolve* during a run, as opposed to the finished-transfer summaries the
// ledger and critpath layers produce.
//
// It records two kinds of series:
//
//   - Per-flow TCP state series (FlowRec), sampled on state *change* rather
//     than on a ticker: cwnd, ssthresh, srtt/rttvar, RTO, flight size and
//     the advertised windows, plus a retransmission taxonomy (RTO fire vs
//     fast retransmit vs persist probe vs keepalive probe).  Sampling on
//     change keeps the series exact — a ticker either misses the 3-dupack
//     cwnd collapse between ticks or burns samples on idle flows — and it
//     makes the series a pure function of the event sequence, so two
//     same-seed runs produce byte-identical dumps.
//
//   - Per-port wire telemetry (WireRec): tx/rx busy time accumulated into
//     fixed virtual-time windows (a busy-fraction series), stall-duration
//     histograms, and per-(src,flow) bytes-on-wire attribution using the
//     fabric's Frame.Flow tag. The per-cause drop counts are the network's
//     own, read through ReadDrops, not counted here.
//
// The analyzer (analyze.go) joins the two with per-host adaptor-memory
// stats into a per-flow congestion verdict.
//
// Like every obs layer before it, netobs follows the nil-hook discipline:
// every method on a nil *Recorder, *FlowRec or *WireRec is a no-op, takes
// only scalar arguments, and allocates nothing, so a disabled recorder
// costs two compare-and-branch per hook site and the instrumented code
// needs no conditionals.  Telemetry charges no simulated time.
package netobs

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/obs"
	"repro/internal/units"
)

// Caps keep a runaway flow from holding the whole run's history in memory.
// Overflow is counted, never silent.
const (
	maxFlowSamples = 1 << 15 // per flow; on-change sampling stays well under
	maxRtxEvents   = 1 << 12 // per flow retransmission-event log
)

// DefaultWireWindow is the busy-fraction accumulation window used when
// Wire() is given a zero window.  1ms spans ~80 max-size HIPPI frames at
// line rate: coarse enough to smooth per-frame jitter, fine enough to see
// an incast burst saturate a port.
const DefaultWireWindow = units.Millisecond

// RtxKind classifies why a segment was (re)sent outside the normal
// data-driven output path.
type RtxKind int

const (
	// RtxRTO is a retransmission timer fire (go-back-N resend).
	RtxRTO RtxKind = iota
	// RtxFast is a 3-dupack fast retransmit.
	RtxFast
	// RtxPersist is a 1-byte zero-window persist probe.
	RtxPersist
	// RtxKeepalive is a keepalive probe on an idle connection.
	RtxKeepalive

	numRtxKinds
)

var rtxNames = [numRtxKinds]string{"rto", "fast", "persist", "keepalive"}

func (k RtxKind) String() string {
	if k < 0 || k >= numRtxKinds {
		return "?"
	}
	return rtxNames[k]
}

// MarshalText writes the kind's name, the form dumps carry.
func (k RtxKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a kind's name back, refusing any other string.
func (k *RtxKind) UnmarshalText(b []byte) error {
	for i, n := range rtxNames {
		if string(b) == n {
			*k = RtxKind(i)
			return nil
		}
	}
	return fmt.Errorf("netobs: unknown rtx kind %q", b)
}

// FlowState is the congestion-relevant slice of a TCP connection's state,
// passed by value so a disabled hook allocates nothing.
type FlowState struct {
	Cwnd     int64 `json:"cwnd"`      // congestion window, bytes
	Ssthresh int64 `json:"ssthresh"`  // slow-start threshold, bytes
	SrttNs   int64 `json:"srtt_ns"`   // smoothed RTT estimate
	RttvarNs int64 `json:"rttvar_ns"` // RTT variance estimate
	RtoNs    int64 `json:"rto_ns"`    // current retransmission timeout
	Flight   int64 `json:"flight"`    // bytes in flight (sndNxt - sndUna)
	SndWnd   int64 `json:"snd_wnd"`   // peer-advertised send window, bytes
	RcvWnd   int64 `json:"rcv_wnd"`   // our last advertised receive window, bytes
}

// FlowSample is one row of a per-flow series: a FlowState plus the virtual
// time it was observed. encoding/json flattens the embedded state, so a
// dump's row reads as one object.
type FlowSample struct {
	TNs int64 `json:"t_ns"`
	FlowState
}

// RtxEvent is one entry of a flow's retransmission-event log.
type RtxEvent struct {
	TNs  int64   `json:"t_ns"`
	Kind RtxKind `json:"kind"`
}

// FlowRec records one connection's state series.  All methods are nil-safe
// no-ops.
type FlowRec struct {
	rec   *Recorder
	Host  string
	Node  int // fabric port id of the host, for the wire join
	Port  int // local port: the flow id carried in Frame.Flow on tx
	RPort int // remote port

	samples   obs.Log[FlowSample] // at most maxFlowSamples
	rtxEvents obs.Log[RtxEvent]   // at most maxRtxEvents
}

// Note records the connection state if it differs from the last recorded
// sample.  Several state changes at the same virtual instant coalesce into
// one row holding the final state, so a sample never shows a half-applied
// update.
func (f *FlowRec) Note(st FlowState) {
	if f == nil {
		return
	}
	now := int64(f.rec.now())
	if n := f.samples.Len(); n > 0 {
		last := f.samples.At(n - 1)
		if last.FlowState == st {
			return
		}
		if last.TNs == now {
			last.FlowState = st
			return
		}
	}
	f.samples.Append(FlowSample{TNs: now, FlowState: st})
}

// Rtx records a retransmission-taxonomy event.
func (f *FlowRec) Rtx(kind RtxKind) {
	if f == nil || kind < 0 || kind >= numRtxKinds {
		return
	}
	f.rtxEvents.Append(RtxEvent{TNs: int64(f.rec.now()), Kind: kind})
}

// digest is an FNV-1a hash over the sample rows, used by the postmortem to
// pin series content without embedding the full series in bench JSON.
func (f *FlowRec) digest() string {
	h := fnv.New64a()
	var b [8]byte
	word := func(v int64) {
		for i := 0; i < 8; i++ {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	for i := 0; i < f.samples.Len(); i++ {
		s := f.samples.At(i)
		word(s.TNs)
		word(s.Cwnd)
		word(s.Ssthresh)
		word(s.SrttNs)
		word(s.RttvarNs)
		word(s.RtoNs)
		word(s.Flight)
		word(s.SndWnd)
		word(s.RcvWnd)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// portRec accumulates one fabric port's tx/rx activity.
type portRec struct {
	node int
	// name labels synthetic fabric ports (trunk directions like
	// "leaf0-spine1>"); empty for host ports, whose node id is the label.
	name string

	txBusy []units.Time // busy ns per window
	rxBusy []units.Time

	txFrames, rxFrames   int64
	txBytes, rxBytes     int64
	txStalls, rxStalls   int64
	txLastEnd, rxLastEnd units.Time

	txStallHist *obs.Histogram
	rxStallHist *obs.Histogram
}

// flowKey attributes wire bytes to a (source node, flow tag) pair.
type flowKey struct {
	src  int
	flow int
}

type flowWire struct {
	dst    int
	bytes  int64
	frames int64
}

// WireRec records one fabric's port telemetry.  All methods are nil-safe
// no-ops.
type WireRec struct {
	rec    *Recorder
	Label  string
	window units.Time

	ports     map[int]*portRec
	portOrder []int // first-use order; sorted at snapshot time

	flows map[flowKey]*flowWire

	// drops reads the wire's own drop counts (none until ReadDrops).
	drops func() Drops
}

// Drops is a wire's frame-drop counts by cause: frames dropped by the
// fault injector, frames addressed to a node with no attached port, and
// frames tail-dropped at a full trunk queue.
type Drops struct{ Inj, Unattached, Full int64 }

// ReadDrops hands the recorder the wire's drop counts: Snapshot and
// Analyze report what fn returns, so the network stays their one counter.
func (w *WireRec) ReadDrops(fn func() Drops) {
	if w != nil {
		w.drops = fn
	}
}

func (w *WireRec) port(node int) *portRec {
	p := w.ports[node]
	if p == nil {
		p = &portRec{
			node:        node,
			txStallHist: &obs.Histogram{},
			rxStallHist: &obs.Histogram{},
		}
		w.ports[node] = p
		w.portOrder = append(w.portOrder, node)
	}
	return p
}

// accBusy folds the busy interval [start, end) into per-window busy time.
func accBusy(busy []units.Time, window, start, end units.Time) []units.Time {
	for start < end {
		i := int(start / window)
		for i >= len(busy) {
			busy = append(busy, 0)
		}
		edge := units.Time(i+1) * window
		if edge > end {
			edge = end
		}
		busy[i] += edge - start
		start = edge
	}
	return busy
}

// Tx records one frame's transmit serialization on the source port:
// the stall behind earlier frames, the busy interval [start, end), and the
// per-flow bytes-on-wire attribution (dst is the frame's destination node,
// flow the Frame.Flow tag).
func (w *WireRec) Tx(src, dst, flow, bytes int, stall, start, end units.Time) {
	if w == nil {
		return
	}
	p := w.port(src)
	p.txFrames++
	p.txBytes += int64(bytes)
	p.txBusy = accBusy(p.txBusy, w.window, start, end)
	if end > p.txLastEnd {
		p.txLastEnd = end
	}
	if stall > 0 {
		p.txStalls++
		p.txStallHist.Observe(stall)
	}
	fk := flowKey{src: src, flow: flow}
	fw := w.flows[fk]
	if fw == nil {
		fw = &flowWire{dst: dst}
		w.flows[fk] = fw
	}
	fw.dst = dst
	fw.bytes += int64(bytes)
	fw.frames++
}

// Trunk records one frame's transmit serialization across a fabric trunk
// direction. portID is a synthetic port id namespaced above host nodes
// (so multi-switch fabrics can't collide with host ports) and name labels
// it (e.g. "leaf0-spine1>"). Unlike Tx, no per-flow bytes-on-wire
// attribution happens here: a flow's wire bytes are counted once, at its
// source host port, and trunk rows would double-count them.
func (w *WireRec) Trunk(portID int, name string, bytes int, stall, start, end units.Time) {
	if w == nil {
		return
	}
	p := w.port(portID)
	p.name = name
	p.txFrames++
	p.txBytes += int64(bytes)
	p.txBusy = accBusy(p.txBusy, w.window, start, end)
	if end > p.txLastEnd {
		p.txLastEnd = end
	}
	if stall > 0 {
		p.txStalls++
		p.txStallHist.Observe(stall)
	}
}

// Rx records one frame's receive serialization on the destination port.
func (w *WireRec) Rx(dst, bytes int, stall, start, end units.Time) {
	if w == nil {
		return
	}
	p := w.port(dst)
	p.rxFrames++
	p.rxBytes += int64(bytes)
	p.rxBusy = accBusy(p.rxBusy, w.window, start, end)
	if end > p.rxLastEnd {
		p.rxLastEnd = end
	}
	if stall > 0 {
		p.rxStalls++
		p.rxStallHist.Observe(stall)
	}
}

// Recorder owns the run's flow and wire records.  The zero value of the
// pointer (nil) is a valid disabled recorder.
type Recorder struct {
	now   func() units.Time
	flows []*FlowRec
	wires []*WireRec
}

// New returns a Recorder stamping samples with the given virtual clock.
func New(now func() units.Time) *Recorder {
	return &Recorder{now: now}
}

// Flow registers a connection and returns its series recorder.  Identity is
// (host, local port, remote port): server-side connections share the
// listening local port and are told apart by the remote port.  Returns nil
// (a valid no-op recorder) on a nil Recorder.
func (r *Recorder) Flow(host string, node, lport, rport int) *FlowRec {
	if r == nil {
		return nil
	}
	f := &FlowRec{rec: r, Host: host, Node: node, Port: lport, RPort: rport,
		samples: obs.NewLog[FlowSample](maxFlowSamples), rtxEvents: obs.NewLog[RtxEvent](maxRtxEvents)}
	r.flows = append(r.flows, f)
	return f
}

// Wire registers a fabric and returns its port-telemetry recorder.  A zero
// window selects DefaultWireWindow.
func (r *Recorder) Wire(label string, window units.Time) *WireRec {
	if r == nil {
		return nil
	}
	if window <= 0 {
		window = DefaultWireWindow
	}
	w := &WireRec{
		rec:    r,
		Label:  label,
		window: window,
		ports:  make(map[int]*portRec),
		flows:  make(map[flowKey]*flowWire),
		drops:  func() Drops { return Drops{} },
	}
	r.wires = append(r.wires, w)
	return w
}

// FlowDump is one flow's full series in a Snapshot.
type FlowDump struct {
	Host           string       `json:"host"`
	Node           int          `json:"node"`
	Port           int          `json:"port"`
	RPort          int          `json:"rport"`
	Samples        []FlowSample `json:"samples"`
	DroppedSamples int64        `json:"dropped_samples,omitempty"`
	Rtx            []RtxEvent   `json:"rtx,omitempty"`
	DroppedRtx     int64        `json:"dropped_rtx,omitempty"`
	Digest         string       `json:"digest"`
}

// FlowWireDump is one (src node, flow tag) bytes-on-wire attribution row.
type FlowWireDump struct {
	Src    int   `json:"src"`
	Flow   int   `json:"flow"`
	Dst    int   `json:"dst"`
	Bytes  int64 `json:"bytes"`
	Frames int64 `json:"frames"`
}

// PortDump is one port's wire telemetry in a Snapshot.
type PortDump struct {
	Node           int              `json:"node"`
	Name           string           `json:"name,omitempty"`    // trunk ports only
	TxBusyPerMille []int64          `json:"tx_busy_per_mille"` // per window
	RxBusyPerMille []int64          `json:"rx_busy_per_mille"`
	TxFrames       int64            `json:"tx_frames"`
	RxFrames       int64            `json:"rx_frames"`
	TxBytes        int64            `json:"tx_bytes"`
	RxBytes        int64            `json:"rx_bytes"`
	TxStalls       int64            `json:"tx_stalls"`
	RxStalls       int64            `json:"rx_stalls"`
	TxStallNs      obs.HistSnapshot `json:"tx_stall_ns"`
	RxStallNs      obs.HistSnapshot `json:"rx_stall_ns"`
}

// WireDump is one fabric's telemetry in a Snapshot.
type WireDump struct {
	Label          string         `json:"label"`
	WindowNs       int64          `json:"window_ns"`
	Ports          []PortDump     `json:"ports"`
	Flows          []FlowWireDump `json:"flows"`
	DropInj        int64          `json:"drop_inj"`
	DropUnattached int64          `json:"drop_unattached"`
	DropFull       int64          `json:"drop_full,omitempty"`
}

// Dump is the recorder's full state: every flow series and every wire's
// port telemetry, in deterministic order.
type Dump struct {
	Flows []FlowDump `json:"flows"`
	Wires []WireDump `json:"wires"`
}

func perMille(busy []units.Time, window units.Time) []int64 {
	out := make([]int64, len(busy))
	for i, b := range busy {
		pm := int64(b) * 1000 / int64(window)
		if pm > 1000 {
			pm = 1000
		}
		out[i] = pm
	}
	return out
}

// Snapshot renders the recorder's state.  Flows appear in registration
// order (deterministic under the seeded engine); ports and wire flows are
// sorted.
func (r *Recorder) Snapshot() *Dump {
	if r == nil {
		return nil
	}
	d := &Dump{}
	for _, f := range r.flows {
		fd := FlowDump{
			Host:           f.Host,
			Node:           f.Node,
			Port:           f.Port,
			RPort:          f.RPort,
			Samples:        f.samples.Slice(),
			DroppedSamples: f.samples.Dropped(),
			Rtx:            f.rtxEvents.Slice(),
			DroppedRtx:     f.rtxEvents.Dropped(),
			Digest:         f.digest(),
		}
		if fd.Samples == nil {
			fd.Samples = []FlowSample{}
		}
		d.Flows = append(d.Flows, fd)
	}
	if d.Flows == nil {
		d.Flows = []FlowDump{}
	}
	for _, w := range r.wires {
		dr := w.drops()
		wd := WireDump{
			Label:          w.Label,
			WindowNs:       int64(w.window),
			DropInj:        dr.Inj,
			DropUnattached: dr.Unattached,
			DropFull:       dr.Full,
		}
		nodes := append([]int(nil), w.portOrder...)
		sort.Ints(nodes)
		for _, node := range nodes {
			p := w.ports[node]
			wd.Ports = append(wd.Ports, PortDump{
				Node:           p.node,
				Name:           p.name,
				TxBusyPerMille: perMille(p.txBusy, w.window),
				RxBusyPerMille: perMille(p.rxBusy, w.window),
				TxFrames:       p.txFrames,
				RxFrames:       p.rxFrames,
				TxBytes:        p.txBytes,
				RxBytes:        p.rxBytes,
				TxStalls:       p.txStalls,
				RxStalls:       p.rxStalls,
				TxStallNs:      p.txStallHist.Snapshot(),
				RxStallNs:      p.rxStallHist.Snapshot(),
			})
		}
		if wd.Ports == nil {
			wd.Ports = []PortDump{}
		}
		keys := make([]flowKey, 0, len(w.flows))
		for k := range w.flows {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].src != keys[j].src {
				return keys[i].src < keys[j].src
			}
			return keys[i].flow < keys[j].flow
		})
		for _, k := range keys {
			fw := w.flows[k]
			wd.Flows = append(wd.Flows, FlowWireDump{
				Src: k.src, Flow: k.flow, Dst: fw.dst,
				Bytes: fw.bytes, Frames: fw.frames,
			})
		}
		if wd.Flows == nil {
			wd.Flows = []FlowWireDump{}
		}
		d.Wires = append(d.Wires, wd)
	}
	if d.Wires == nil {
		d.Wires = []WireDump{}
	}
	return d
}

// JSON renders the dump as deterministic indented JSON.
func (d *Dump) JSON() []byte {
	return obs.JSON(d)
}
