package obs

import (
	"repro/internal/units"
)

// Cause classifies one happens-before edge of the critical-path graph: the
// reason the child event could not have happened earlier than it did. The
// edge's duration (child time minus binding-parent time) is attributed to
// this class by the critical-path analyzer.
type Cause uint8

// Edge cause classes. The split mirrors where the paper says the time can
// go: host CPU work (with data-touching copy/checksum separated out, since
// eliminating those is the whole point), DMA engines, the wire, queueing
// behind earlier work, network-memory admission, interrupt delivery, and
// the protocol stalls (ACK clocking, delayed ACK, retransmission timeout,
// persist probing, Nagle).
const (
	CauseNone Cause = iota
	CauseApp
	CauseSched
	CauseCPU
	CauseCPUCopy
	CauseCPUCsum
	CauseQueue
	CauseNetmem
	CauseDMA
	CauseWire
	CauseIntr
	CauseAckClock
	CauseDelAck
	CauseRTO
	CausePersist
	CauseNagle
	NumCauses
)

var causeNames = [NumCauses]string{
	"none", "app", "sched", "cpu", "cpu-copy", "cpu-csum", "queue",
	"netmem", "dma", "wire", "intr", "ack-clock", "delack", "rto",
	"persist", "nagle",
}

func (c Cause) String() string {
	if c < NumCauses {
		return causeNames[c]
	}
	return "cause?"
}

// CritEvent is one node of the happens-before graph: a lifecycle event
// (write start, tcp_output, SDMA done, wire arrival, read wakeup, ...) that
// occurred at virtual instant T. Parent is the 1-based id of the *binding*
// dependency — the latest-finishing event this one had to wait for — and
// Cause classifies that wait. Parent 0 marks a root (an event with no
// recorded dependency, e.g. the application's first write). Because every
// event is recorded at the instant it occurs and its parent was recorded
// earlier, edge durations are non-negative and the back-walk from any
// event telescopes exactly to T(event) − T(root).
type CritEvent struct {
	Parent int32
	Cause  Cause
	Done   bool
	Kind   string
	Host   string
	Flow   int
	Off    int64
	Len    int64
	T      units.Time
}

// CritAlt is a non-binding dependency edge: event To also waited for From,
// but From finished before To's binding parent did. The difference is the
// edge's slack — how much later From could have finished without delaying
// To. The analyzer aggregates slack per cause to show which off-path work
// is nearly critical.
type CritAlt struct {
	From  int32
	To    int32
	Cause Cause
}

// CritRec records the happens-before graph of a run. Events are appended in
// virtual-time order (the simulation engine is single-threaded, so no
// locking is needed); ids are 1-based indices into the event slice. A nil
// *CritRec is a valid no-op sink, which is the disabled fast path. The data
// path records through a Chain, never through Ev or EvJoin directly.
type CritRec struct {
	now func() units.Time
	ev  []CritEvent
	alt []CritAlt
}

// NewCritRec returns a recorder clocked by now.
func NewCritRec(now func() units.Time) *CritRec {
	return &CritRec{now: now}
}

// Ev records an event occurring now with binding parent parent (0 for a
// root) under cause, returning its id. A nil receiver returns 0, the
// "no event" id, which flows harmlessly through later calls.
func (r *CritRec) Ev(parent int32, cause Cause, kind, host string, flow int, off, n int64) int32 {
	if r == nil {
		return 0
	}
	r.ev = append(r.ev, CritEvent{
		Parent: parent, Cause: cause, Kind: kind, Host: host,
		Flow: flow, Off: off, Len: n, T: r.now(),
	})
	return int32(len(r.ev))
}

// EvJoin records an event that waited on two dependencies: p1 under cause
// c1 and p2 under cause c2. The later-finishing parent binds (it is the one
// the event actually waited for); the earlier one is kept as a slack edge.
// Ties bind to p1, so callers pass the primary data-flow chain first. A
// missing parent (id 0) never binds.
func (r *CritRec) EvJoin(p1 int32, c1 Cause, p2 int32, c2 Cause, kind, host string, flow int, off, n int64) int32 {
	if r == nil {
		return 0
	}
	bp, bc := p1, c1
	ap, ac := p2, c2
	if p1 == 0 || (p2 != 0 && r.t(p2) > r.t(p1)) {
		bp, bc = p2, c2
		ap, ac = p1, c1
	}
	id := r.Ev(bp, bc, kind, host, flow, off, n)
	if ap != 0 && ap != bp {
		r.alt = append(r.alt, CritAlt{From: ap, To: id, Cause: ac})
	}
	return id
}

// MarkDone flags the event as a completion point (message fully delivered
// to the application). The analyzer back-walks from completion points.
func (r *CritRec) MarkDone(id int32) {
	if r == nil || id <= 0 || int(id) > len(r.ev) {
		return
	}
	r.ev[id-1].Done = true
}

func (r *CritRec) t(id int32) units.Time {
	if id <= 0 || int(id) > len(r.ev) {
		return 0
	}
	return r.ev[id-1].T
}

// Events returns the recorded events in creation (virtual-time) order.
// Event id i is Events()[i-1]. The slice is the recorder's own; callers
// must not mutate it.
func (r *CritRec) Events() []CritEvent {
	if r == nil {
		return nil
	}
	return r.ev
}

// Alts returns the recorded non-binding (slack) edges.
func (r *CritRec) Alts() []CritAlt {
	if r == nil {
		return nil
	}
	return r.alt
}

// Chain is a causal-chain cursor, the one way the data path records a
// happens-before event: one chain of one flow on one host — a packet's
// span, a connection's writer or reader, or the trigger of a connection's
// next output. An event recorded on a chain binds to the chain's previous
// event (its cursor) and becomes the new cursor, so the gap between them
// is attributed to the new event's cause. A chain made while the recorder
// is off, like the zero Chain or a nil *Chain, records nothing and keeps a
// zero cursor.
type Chain struct {
	rec  *CritRec
	host string
	flow int32 // a port; int32 keeps a Span in its 128-byte size class
	cur  int32
}

// Chain returns an empty cursor for flow's events on host, recording into
// the trace's causal recorder (a no-op chain when the recorder is off).
func (t *Trace) Chain(host string, flow int) Chain {
	if t == nil {
		return Chain{}
	}
	return Chain{rec: t.crit, host: host, flow: int32(flow)}
}

// Ev records an event occurring now that carries stream bytes [off, off+n)
// and returns its id (0 when the recorder is off).
func (c *Chain) Ev(cause Cause, kind string, off, n units.Size) int32 {
	if c == nil || c.rec == nil {
		return 0
	}
	c.cur = c.rec.Ev(c.cur, cause, kind, c.host, int(c.flow), int64(off), int64(n))
	return c.cur
}

// Join is Ev with a second dependency: the event waited for both the
// cursor (under cause c1) and event p2 (under cause c2). The later one
// binds; the other is kept as a slack edge.
func (c *Chain) Join(c1 Cause, p2 int32, c2 Cause, kind string, off, n units.Size) int32 {
	if c == nil || c.rec == nil {
		return 0
	}
	c.cur = c.rec.EvJoin(c.cur, c1, p2, c2, kind, c.host, int(c.flow), int64(off), int64(n))
	return c.cur
}

// Cur returns the cursor: the chain's latest event (0 before the first).
func (c *Chain) Cur() int32 {
	if c == nil {
		return 0
	}
	return c.cur
}

// Seed moves the cursor to event id recorded on another chain, so this
// chain's next event hangs off it.
func (c *Chain) Seed(id int32) {
	if c != nil && c.rec != nil {
		c.cur = id
	}
}

// MarkDone flags the cursor event as a completion point.
func (c *Chain) MarkDone() {
	if c != nil {
		c.rec.MarkDone(c.cur)
	}
}
