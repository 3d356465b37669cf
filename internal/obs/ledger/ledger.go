// Package ledger is the data-touch ledger: byte-level provenance for the
// simulated data path. Every event in which payload bytes are read or
// written — a CPU copy, a CPU checksum pass, an SDMA between host memory
// and network memory, an MDMA between network memory and the medium, or
// wire transit itself — is recorded as a (flow, byte-range, kind, layer,
// host, vtime) interval. The ledger turns the paper's central claim
// ("each payload byte crosses the host memory bus once") into a
// machine-checked oracle: Audit folds the intervals into per-byte touch
// histograms and AssertCell verifies them against the touches Table 1's
// taxonomy cells predict (internal/taxonomy derives the cells).
//
// Like the rest of internal/obs, the ledger follows two rules:
//
//   - Determinism: records append in simulation event order and export in
//     that order; identical seeds produce byte-identical JSON.
//   - Zero cost when disabled: every hot-path hook is a method on a
//     possibly-nil *Hook; the nil receiver is a no-op, allocates nothing,
//     and charges no simulated time, so the benchmark baselines are
//     byte-identical with the ledger off.
//
// Byte ranges are stream coordinates: offset 0 is the first payload byte
// of the flow (for TCP, sequence iss+1). A flow is identified by the data
// sender's local port; both hosts record against the same flow id, so one
// Audit sees a byte's full journey. Touches that cannot be mapped to a
// stream byte (UDP datagrams, control segments, fragmented packets) are
// counted — never silently lost — in per-kind unattributed totals.
package ledger

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/units"
)

// Kind classifies one data-touching event.
type Kind uint8

// Touch kinds. CPUCopy and CPUCsum are host-CPU passes over the bytes;
// SDMAToNet/SDMAToHost are host-bus DMA between host memory and adaptor
// network memory; MDMATx/MDMARx move bytes between network memory and the
// medium (no host-bus crossing); WireTransit is the bytes on the wire.
const (
	CPUCopy Kind = iota
	CPUCsum
	SDMAToNet
	SDMAToHost
	MDMATx
	MDMARx
	WireTransit
	numKinds
)

var kindNames = [numKinds]string{
	"cpu_copy", "cpu_csum", "sdma_to_net", "sdma_to_host",
	"mdma_tx", "mdma_rx", "wire",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind?"
}

// Flags annotate a record.
type Flags uint8

// Record flags. CsumFlight marks a DMA that computed the transport
// checksum in flight; AutoDMA marks the adaptor's automatic delivery of a
// packet's first AutoDMALen bytes into a host receive buffer (the one
// place the single-copy receive path legitimately CPU-copies payload,
// bounded per packet); Rtx marks a touch caused by a retransmitted
// segment, which AssertCell's retransmit allowance (AuditConfig.Strict)
// accounts for.
const (
	FlagCsumFlight Flags = 1 << iota
	FlagAutoDMA
	FlagRtx
)

func (f Flags) String() string {
	s := ""
	if f&FlagCsumFlight != 0 {
		s += "C"
	}
	if f&FlagAutoDMA != 0 {
		s += "A"
	}
	if f&FlagRtx != 0 {
		s += "R"
	}
	return s
}

// Record is one data-touch interval in stream coordinates. Layer and Host
// are Names in the ledger's table (see Ledger.Name).
type Record struct {
	Flow  int
	Off   units.Size
	Len   units.Size
	Kind  Kind
	Flags Flags
	Layer obs.Name
	Host  obs.Name
	VTime units.Time
	Desc  int64
}

// The layers that record touches directly — the devices and the wire —
// have the same Name in every ledger; a protocol layer's Name is bound
// when a context enters it (Hook.Layer). LayerNone is a touch outside any
// layer.
const (
	LayerNone obs.Name = iota
	LayerEthdev
	LayerSDMA
	LayerCabdrv
	LayerMDMA
	LayerWire
	LayerShim
	LayerLoop
)

var layerNames = []string{"ethdev", "sdma", "cabdrv", "mdma", "wire", "shim", "loop"}

// maxRecords bounds the ledger; beyond it records are counted as dropped
// (Audit refuses to certify a truncated ledger — no silent loss).
const maxRecords = 1 << 20

// flightRingSize bounds the per-host flight-recorder ring of most recent
// records. The ring keeps recording after the main buffer fills, so a
// post-mortem dump always shows the moments before a wedge.
const flightRingSize = 2048

// Ledger is one testbed's data-touch ledger. Create it with New, then
// hand each host (and the wire) a *Hook. All methods are single-threaded
// under the simulation engine, like the rest of the testbed.
type Ledger struct {
	now      func() units.Time
	names    *obs.Names
	hooks    []*Hook
	records  obs.Log[Record]
	unattrEv [numKinds]int64
	unattrB  [numKinds]units.Size
	nextDesc int64
}

// New returns a ledger timestamped by now — the engine's virtual clock.
func New(now func() units.Time) *Ledger {
	return &Ledger{now: now, names: obs.NewNames(layerNames...), records: obs.NewLog[Record](maxRecords)}
}

// Name returns the string a record's Layer or Host stands for.
func (l *Ledger) Name(id obs.Name) string { return l.names.String(id) }

// Hook returns the recording hook labeled host, creating it on first use.
// Hooks appear in dumps in creation order.
func (l *Ledger) Hook(host string) *Hook {
	id := l.names.Bind(host)
	for _, h := range l.hooks {
		if h.host == id {
			return h
		}
	}
	h := &Hook{led: l, host: id}
	l.hooks = append(l.hooks, h)
	return h
}

// Records returns a copy of the recorded touches in event order.
func (l *Ledger) Records() []Record { return l.records.Slice() }

// Dropped returns how many records overflowed the bound.
func (l *Ledger) Dropped() int64 { return l.records.Dropped() }

// Hook records touches for one host (or "wire"). A nil *Hook is a valid
// no-op sink: the disabled-ledger fast path is a single nil check with no
// allocation and no simulated-time charge.
type Hook struct {
	led  *Ledger
	host obs.Name
	ring [flightRingSize]Record
	head int
	n    int
}

// Host returns the hook's host label ("" for nil).
func (h *Hook) Host() string {
	if h == nil {
		return ""
	}
	return h.led.Name(h.host)
}

// Layer binds a layer's name in the ledger's table and returns its id, the
// Layer a touch recorded under it carries (LayerNone for nil).
func (h *Hook) Layer(name string) obs.Name {
	if h == nil {
		return LayerNone
	}
	return h.led.names.Bind(name)
}

// Enabled reports whether the hook records (false for nil).
func (h *Hook) Enabled() bool { return h != nil }

// Touch records one data-touch interval in stream coordinates under the
// layer named layer, binding the name on the way.
func (h *Hook) Touch(flow int, off, n units.Size, kind Kind, layer string, flags Flags, desc int64) {
	if h == nil || n <= 0 {
		return
	}
	h.touch(flow, off, n, kind, h.Layer(layer), flags, desc)
}

// touch is Touch with the layer already bound.
func (h *Hook) touch(flow int, off, n units.Size, kind Kind, layer obs.Name, flags Flags, desc int64) {
	r := Record{
		Flow: flow, Off: off, Len: n, Kind: kind, Layer: layer,
		Host: h.host, VTime: h.led.now(), Flags: flags, Desc: desc,
	}
	h.led.records.Append(r)
	h.ring[h.head] = r
	h.head = (h.head + 1) % flightRingSize
	if h.n < flightRingSize {
		h.n++
	}
}

// TouchP records a packet-relative byte range [pktOff, pktOff+n) against
// the flow of the segment sp carries, clipping to the payload and
// translating to stream coordinates. Header-only ranges record nothing;
// bytes on a packet without a payload-carrying span (nil, or a pure-ACK
// carrier with Len 0) count as unattributed. The segment's Rtx folds into
// the flags.
func (h *Hook) TouchP(sp *obs.Span, pktOff, n units.Size, kind Kind, layer obs.Name, flags Flags) {
	if h != nil {
		h.TouchSeg(sp.Seg(), pktOff, n, kind, layer, flags)
	}
}

// TouchSeg is TouchP for a bare segment identity.
func (h *Hook) TouchSeg(g obs.Seg, pktOff, n units.Size, kind Kind, layer obs.Name, flags Flags) {
	if h == nil || n <= 0 {
		return
	}
	if g.Len == 0 {
		h.Unattributed(kind, n)
		return
	}
	lo, hi := pktOff, pktOff+n
	if lo < g.PayloadOff {
		lo = g.PayloadOff
	}
	if end := g.PayloadOff + g.Len; hi > end {
		hi = end
	}
	if hi <= lo {
		return
	}
	if g.Rtx {
		flags |= FlagRtx
	}
	h.touch(g.Flow, g.Off+(lo-g.PayloadOff), hi-lo, kind, layer, flags, g.Desc)
}

// Unattributed counts bytes touched by kind that could not be mapped to a
// stream byte (UDP, control segments, fragments). The totals are exported
// so unmapped traffic is visible, never silently dropped.
func (h *Hook) Unattributed(kind Kind, n units.Size) {
	if h == nil || n <= 0 {
		return
	}
	h.led.unattrEv[kind]++
	h.led.unattrB[kind] += n
}

// NextDesc allocates a sosend descriptor id (0 when disabled). Ids are
// testbed-global and deterministic: allocation order is event order.
func (h *Hook) NextDesc() int64 {
	if h == nil {
		return 0
	}
	h.led.nextDesc++
	return h.led.nextDesc
}

// jsonRecord is the exported record form.
type jsonRecord struct {
	Flow  int    `json:"flow"`
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	Kind  string `json:"kind"`
	Layer string `json:"layer"`
	Host  string `json:"host"`
	NS    int64  `json:"ns"`
	Flags string `json:"flags,omitempty"`
	Desc  int64  `json:"desc,omitempty"`
}

func (l *Ledger) jsonRecord(r *Record) jsonRecord {
	return jsonRecord{
		Flow: r.Flow, Off: int64(r.Off), Len: int64(r.Len),
		Kind: r.Kind.String(), Layer: l.Name(r.Layer), Host: l.Name(r.Host),
		NS: int64(r.VTime), Flags: r.Flags.String(), Desc: r.Desc,
	}
}

// jsonUnattr is one kind's unattributed totals.
type jsonUnattr struct {
	Kind   string `json:"kind"`
	Events int64  `json:"events"`
	Bytes  int64  `json:"bytes"`
}

type jsonLedger struct {
	Records      []jsonRecord `json:"records"`
	Dropped      int64        `json:"dropped,omitempty"`
	Unattributed []jsonUnattr `json:"unattributed,omitempty"`
}

func (l *Ledger) unattributed() []jsonUnattr {
	var out []jsonUnattr
	for k := Kind(0); k < numKinds; k++ {
		if l.unattrEv[k] == 0 {
			continue
		}
		out = append(out, jsonUnattr{Kind: k.String(), Events: l.unattrEv[k], Bytes: int64(l.unattrB[k])})
	}
	return out
}

// JSON exports the full ledger deterministically: records in event order,
// then the drop count and unattributed totals.
func (l *Ledger) JSON() []byte {
	jl := jsonLedger{Records: make([]jsonRecord, 0, l.records.Len()), Dropped: l.Dropped(), Unattributed: l.unattributed()}
	for i := 0; i < l.records.Len(); i++ {
		jl.Records = append(jl.Records, l.jsonRecord(l.records.At(i)))
	}
	return obs.JSON(jl)
}

// flightHost is one hook's recent-record window in the flight dump.
type flightHost struct {
	Host    string       `json:"host"`
	Records []jsonRecord `json:"records"`
}

type flightDump struct {
	NS           int64        `json:"ns"`
	Hosts        []flightHost `json:"hosts"`
	Dropped      int64        `json:"dropped,omitempty"`
	Unattributed []jsonUnattr `json:"unattributed,omitempty"`
}

// FlightDump exports the flight recorder: each host's ring of most recent
// records (oldest first), stamped with the current virtual time. The
// rings keep recording after the main buffer overflows, so the dump shows
// the run's final moments even on a truncated ledger. Dump it when a
// watchdog fires to capture what the data path was doing at the wedge.
func (l *Ledger) FlightDump() []byte {
	d := flightDump{NS: int64(l.now()), Dropped: l.Dropped(), Unattributed: l.unattributed()}
	for _, h := range l.hooks {
		fh := flightHost{Host: l.Name(h.host), Records: []jsonRecord{}}
		for i := 0; i < h.n; i++ {
			idx := (h.head - h.n + i + flightRingSize) % flightRingSize
			fh.Records = append(fh.Records, l.jsonRecord(&h.ring[idx]))
		}
		d.Hosts = append(d.Hosts, fh)
	}
	return obs.JSON(d)
}

// MainFlow returns the flow with the most attributed bytes — the bulk
// data flow of a single-transfer run — or 0 if nothing was recorded.
// Deterministic: ties break toward the lower flow id.
func (l *Ledger) MainFlow() int {
	totals := map[int]units.Size{}
	for i := 0; i < l.records.Len(); i++ {
		r := l.records.At(i)
		totals[r.Flow] += r.Len
	}
	best, bestN := 0, units.Size(-1)
	for f, n := range totals {
		if n > bestN || (n == bestN && f < best) {
			best, bestN = f, n
		}
	}
	if bestN < 0 {
		return 0
	}
	return best
}

func (l *Ledger) String() string {
	return fmt.Sprintf("ledger{%d records, %d dropped}", l.records.Len(), l.Dropped())
}
