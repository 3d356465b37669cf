package obs

import (
	"math"

	"repro/internal/units"
)

// Stage labels one leg of the packet data path, in transit order.
type Stage int

// Data-path stages: socket enqueue wait, protocol packetization, SDMA into
// network memory, the wire (media serialization, switch, and channel
// queueing), the receiver's MDMA/auto-DMA, and delivery up the receive
// stack.
const (
	StageSocket Stage = iota
	StagePacketize
	StageSDMA
	StageWire
	StageMDMA
	StageDeliver
	numStages
)

var stageNames = [numStages]string{
	"socket", "packetize", "sdma", "wire", "mdma", "deliver",
}

func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// maxTraceEvents bounds the Chrome event buffer; beyond it events are
// counted as dropped (the drop count is exported — no silent truncation).
const maxTraceEvents = 1 << 20

// Trace collects packet spans: per-stage Chrome trace events, per-stage
// virtual-time aggregates, and the end-to-end latency histogram. One Trace
// is shared by all hosts of a testbed so a span can cross the wire. A nil
// *Trace is a valid no-op sink.
type Trace struct {
	now       func() units.Time
	names     *Names
	nextID    int64
	events    Log[chromeEvent]
	spans     int64
	latency   Histogram
	stageTime [numStages]units.Time
	stageN    [numStages]int64
	crit      *CritRec
}

// EnableCrit attaches a causal critical-path recorder to the trace. Spans
// and chains made afterwards record into it; with it unset (the default)
// every chain is a no-op.
func (t *Trace) EnableCrit() {
	if t != nil && t.crit == nil {
		t.crit = newCritRec(t.now, math.MaxInt32, t.names)
	}
}

// Crit returns the trace's causal recorder (nil when not enabled).
func (t *Trace) Crit() *CritRec {
	if t == nil {
		return nil
	}
	return t.crit
}

// NewTrace returns a trace clocked by now.
func NewTrace(now func() units.Time) *Trace {
	return &Trace{now: now, names: NewNames(append(stageNames[:], "xfer")...),
		events: NewLog[chromeEvent](maxTraceEvents)}
}

// A trace's name table starts with the stage names, then "xfer", the name
// of the cross-host flow events.
const nameXfer = Name(numStages + 1)

// name returns stage's id in a trace's name table.
func (s Stage) name() Name { return Name(s + 1) }

// chromeEvent is one Chrome trace-event: "X" complete events for stages,
// "i" instants, and "s"/"f" flow events that draw the cross-host arrow
// when a span migrates from the sender's timeline to the receiver's.
// Timestamps and durations are microseconds of virtual time. Its name, pid
// and tid are ids in the trace's name table; chromeJSON is its exported
// form.
type chromeEvent struct {
	ts, dur        float64
	id             int64
	args           evArgs
	name, pid, tid Name
	ph             phase
}

// phase is a Chrome event's "ph".
type phase uint8

const (
	phComplete  phase = iota // "X": a stage
	phInstant                // "i"
	phFlowStart              // "s": a span leaves a host
	phFlowEnd                // "f": it arrives on the next, binding to the enclosing slice
)

var phaseNames = [...]string{"X", "i", "s", "f"}

// chromeJSON is a chromeEvent as Chrome reads it.
type chromeJSON struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Cat  string  `json:"cat,omitempty"`
	ID   int64   `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  string  `json:"pid"`
	TID  string  `json:"tid"`
	Args evArgs  `json:"args"`
}

// chrome resolves ev's ids into its exported form.
func (t *Trace) chrome(ev *chromeEvent) chromeJSON {
	j := chromeJSON{
		Name: t.names.String(ev.name), Ph: phaseNames[ev.ph], ID: ev.id,
		TS: ev.ts, Dur: ev.dur,
		PID: t.names.String(ev.pid), TID: t.names.String(ev.tid), Args: ev.args,
	}
	if ev.ph == phFlowStart || ev.ph == phFlowEnd {
		j.Cat = "dataflow"
	}
	if ev.ph == phFlowEnd {
		j.BP = "e"
	}
	return j
}

type evArgs struct {
	Span int64 `json:"span"`
	Rtx  bool  `json:"rtx,omitempty"`
	// Flow is the data flow id (the sender's local port), Desc the sosend
	// descriptor id, and Off/Len the stream byte range the packet carries —
	// set by the transport so one byte range's journey is traceable.
	Flow int   `json:"flow,omitempty"`
	Desc int64 `json:"desc,omitempty"`
	Off  int64 `json:"off,omitempty"`
	Len  int64 `json:"len,omitempty"`
}

func micros(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }

// Event emits an instant event (Chrome "i" phase) on pid's timeline —
// point occurrences like injected faults that have no duration. A nil
// *Trace is a no-op.
func (t *Trace) Event(pid, tid, name string) {
	if t == nil {
		return
	}
	t.events.Append(chromeEvent{
		name: t.names.Bind(name), ph: phInstant, ts: micros(t.now()),
		pid: t.names.Bind(pid), tid: t.names.Bind(tid),
	})
}

// Seg is the identity of the data segment a span carries. It is the
// packet's one recorder handle: the trace labels its events with it, the
// causal recorder its chain, and the data-touch ledger maps packet-relative
// byte ranges back to stream bytes through it.
type Seg struct {
	// Flow is the data sender's local port.
	Flow int
	// Off is the stream offset of the payload's first byte; Len is the
	// payload length (0 for a pure-ACK carrier, whose bytes the ledger
	// counts as unattributed).
	Off, Len units.Size
	// PayloadOff is the payload's offset within the full wire packet
	// (link + IP + transport headers).
	PayloadOff units.Size
	// Desc is the sosend descriptor id the payload came from (0 if none).
	Desc int64
	// Rtx marks a retransmitted segment.
	Rtx bool
}

// Span follows one packet through the data path. Exactly one stage is open
// at a time; Enter closes the current stage (emitting its trace event) and
// opens the next. A nil *Span is a valid no-op, which is how uninstrumented
// paths (UDP, raw, disabled recorders) flow through the same code. A span
// without a trace carries only its Seg: its stage, latency and causal
// methods are no-ops.
//
// The span is also the packet's causal chain: its embedded Chain records
// on the timeline of the host the packet is on, for the segment's flow.
type Span struct {
	Chain
	tr       *Trace
	id       int64
	start    units.Time
	cur      Stage
	curStart units.Time
	open     bool
	done     bool
	silent   bool
	seg      Seg
}

// StartSpan opens a span originating on host, beginning now.
func (t *Trace) StartSpan(host string) *Span {
	if t == nil {
		return nil
	}
	return t.StartSpanAt(host, t.now())
}

// StartSpanAt opens a span whose life began at an earlier instant (e.g. the
// socket-enqueue time recorded before the segment was cut).
func (t *Trace) StartSpanAt(host string, at units.Time) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	return &Span{Chain: Chain{rec: t.crit, host: t.names.Bind(host)}, tr: t, id: t.nextID, start: at}
}

// StartSeg opens the span of data segment seg on host, its life begun at
// at. On a nil trace it still returns a span — one that carries seg alone,
// for the data-touch ledger.
func (t *Trace) StartSeg(host string, at units.Time, seg Seg) *Span {
	if t == nil {
		return &Span{seg: seg}
	}
	sp := t.StartSpanAt(host, at)
	sp.seg, sp.flow = seg, int32(seg.Flow)
	return sp
}

// StartCarrier opens a causal carrier span for flow on host: a silent span
// that rides a packet which carries no traced payload (a pure ACK) solely
// so its critical-path events cross the wire with it. It emits no Chrome
// events and counts toward no stage or latency statistics — baselines stay
// byte-identical — and exists only when the causal recorder is enabled.
func (t *Trace) StartCarrier(host string, flow int) *Span {
	if t == nil || t.crit == nil {
		return nil
	}
	sp := t.StartSpanAt(host, t.now())
	sp.silent = true
	sp.seg.Flow, sp.flow = flow, int32(flow)
	return sp
}

// Seg returns the segment identity the span carries (zero for nil).
func (s *Span) Seg() Seg {
	if s == nil {
		return Seg{}
	}
	return s.seg
}

// DropTrace switches off the span's trace and causal side, keeping its
// Seg for the ledger. Legacy devices (the driver-entry shim, ethdev) call
// it where a packet leaves the CAB data path: the stages are CAB-path
// concepts, and such a packet never reaches the stage that would end its
// span, so nothing after this point may emit or count.
func (s *Span) DropTrace() {
	if s != nil {
		s.tr, s.rec = nil, nil
	}
}

// traced reports whether stage methods act on s.
func (s *Span) traced() bool { return s != nil && s.tr != nil && !s.done }

// EnterAt closes the currently open stage at instant at and opens stage.
func (s *Span) EnterAt(stage Stage, at units.Time) {
	if !s.traced() {
		return
	}
	s.closeStage(at)
	s.cur, s.curStart, s.open = stage, at, true
}

// Enter is EnterAt at the trace's current virtual time.
func (s *Span) Enter(stage Stage) {
	if !s.traced() {
		return
	}
	s.EnterAt(stage, s.tr.now())
}

// EnterOn is Enter on another host's timeline: when a packet crosses the
// wire, the receiving side calls EnterOn with its own host label. The
// stage that was open closes on the old host, a Chrome flow-event pair
// ("s" on the old timeline, binding "f" on the new) records the handoff
// so Perfetto draws the cross-host arrow, and the new stage opens under
// the new host's pid. With an empty or unchanged host it is plain Enter.
func (s *Span) EnterOn(stage Stage, host string) {
	if !s.traced() {
		return
	}
	at := s.tr.now()
	if id := s.tr.names.Bind(host); host != "" && id != s.host {
		if s.silent {
			s.host = id
		} else {
			s.closeStage(at)
			ts := micros(at)
			s.tr.events.Append(chromeEvent{
				name: nameXfer, ph: phFlowStart, id: s.id, ts: ts,
				pid: s.host, tid: s.cur.name(), args: s.args(),
			})
			s.host = id
			s.tr.events.Append(chromeEvent{
				name: nameXfer, ph: phFlowEnd, id: s.id, ts: ts,
				pid: s.host, tid: stage.name(), args: s.args(),
			})
		}
	}
	s.EnterAt(stage, at)
}

func (s *Span) args() evArgs {
	g := &s.seg
	return evArgs{Span: s.id, Rtx: g.Rtx, Flow: g.Flow, Desc: g.Desc, Off: int64(g.Off), Len: int64(g.Len)}
}

func (s *Span) closeStage(end units.Time) {
	if !s.open {
		return
	}
	if s.silent {
		s.open = false
		return
	}
	d := end - s.curStart
	t := s.tr
	t.stageTime[s.cur] += d
	t.stageN[s.cur]++
	t.events.Append(chromeEvent{
		name: s.cur.name(), ph: phComplete,
		ts: micros(s.curStart), dur: micros(d),
		pid: s.host, tid: s.cur.name(),
		args: s.args(),
	})
	s.open = false
}

// End closes the span: the open stage is finished and the end-to-end
// latency observed. Spans that are dropped in flight simply never End —
// their completed stage events remain in the trace, but they do not count
// toward the latency histogram.
func (s *Span) End() {
	if !s.traced() {
		return
	}
	end := s.tr.now()
	s.closeStage(end)
	s.done = true
	if s.silent {
		return
	}
	s.tr.spans++
	s.tr.latency.Observe(end - s.start)
}

// CritEv records a critical-path event on the span's chain, labelled with
// the segment's byte range. Valid after End — receive-side processing
// continues a packet's chain after the data-path span has closed. A nil
// span, or one whose trace has no recorder, is a free no-op.
func (s *Span) CritEv(cause Cause, kind EvKind) int32 {
	if s == nil {
		return 0
	}
	return s.Ev(cause, kind, s.seg.Off, s.seg.Len)
}

// CritEvJoin is CritEv with a second dependency p2 (see Chain.Join).
func (s *Span) CritEvJoin(c1 Cause, p2 int32, c2 Cause, kind EvKind) int32 {
	if s == nil {
		return 0
	}
	return s.Join(c1, p2, c2, kind, s.seg.Off, s.seg.Len)
}

// StageStat is one stage's exported aggregate.
type StageStat struct {
	Stage   string `json:"stage"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
	AvgNs   int64  `json:"avg_ns"`
}

// SpanStats is the exported span summary: completed-span count, end-to-end
// latency histogram, and the per-stage breakdown in data-path order.
type SpanStats struct {
	Spans         int64        `json:"spans"`
	Latency       HistSnapshot `json:"latency"`
	Stages        []StageStat  `json:"stages"`
	DroppedEvents int64        `json:"dropped_events,omitempty"`
}

// Latency returns the live end-to-end latency histogram (nil for a nil
// trace), for samplers that want running quantiles mid-run.
func (t *Trace) Latency() *Histogram {
	if t == nil {
		return nil
	}
	return &t.latency
}

// Stats exports the trace's aggregates.
func (t *Trace) Stats() SpanStats {
	if t == nil {
		return SpanStats{}
	}
	s := SpanStats{Spans: t.spans, Latency: t.latency.Snapshot(), DroppedEvents: t.events.Dropped()}
	for st := Stage(0); st < numStages; st++ {
		if t.stageN[st] == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageStat{
			Stage:   st.String(),
			Count:   t.stageN[st],
			TotalNs: int64(t.stageTime[st]),
			AvgNs:   int64(t.stageTime[st]) / t.stageN[st],
		})
	}
	return s
}
