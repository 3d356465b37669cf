// Package critpath turns the causal recorder's happens-before graph into
// per-transfer critical paths with stall attribution. Every completed
// message (a MarkDone event — the reader's read_done) is back-walked along
// binding-parent edges to its root (the writer's write_start); because each
// event was recorded at the instant it occurred and its binding parent is
// the latest-finishing dependency, the edge durations telescope exactly:
// the per-cause attribution of a path sums to T(done) − T(root) with no
// residue. Non-binding (slack) edges show how close off-path work came to
// being critical.
package critpath

import (
	"repro/internal/obs"
	"repro/internal/units"
)

// Step is one node of a critical path, in root→done order. Cause and Dur
// describe the edge *arriving* at this event: the time since the previous
// step, attributed to why this event could not have happened earlier. The
// root step has Dur 0.
type Step struct {
	Ev    int32
	Kind  string
	Host  string
	Flow  int
	Off   int64
	Len   int64
	Cause obs.Cause
	T     units.Time
	Dur   units.Time
}

// SlackEdge is a non-binding dependency of an on-path event: From also had
// to finish before To, but did so Slack early. Zero slack means a tie —
// work that is exactly co-critical.
type SlackEdge struct {
	From     int32
	To       int32
	FromKind string
	ToKind   string
	Cause    obs.Cause
	Slack    units.Time
}

// Path is the critical path of one completed transfer.
type Path struct {
	Done    int32
	Kind    string
	Host    string // completion host (the reader)
	Flow    int
	Bytes   int64
	Start   units.Time
	End     units.Time
	Steps   []Step
	ByCause [obs.NumCauses]units.Time
	Slack   []SlackEdge
}

// Total is the path's end-to-end latency, T(done) − T(root). It equals the
// sum of ByCause exactly.
func (p *Path) Total() units.Time { return p.End - p.Start }

// CauseOn sums the path time attributed to cause on edges whose arriving
// event ran on host — e.g. CauseOn("A", obs.CauseCPUCopy) is the sender's
// copy time if the sender is host A.
func (p *Path) CauseOn(host string, c obs.Cause) units.Time {
	var t units.Time
	for _, s := range p.Steps {
		if s.Host == host && s.Cause == c && s.Dur > 0 {
			t += s.Dur
		}
	}
	return t
}

// Report is the analysis of one recorder: every completed transfer's path,
// plus the per-cause totals across all of them.
type Report struct {
	Paths   []Path
	ByCause [obs.NumCauses]units.Time
	Total   units.Time
	// Dropped counts the events the recorder refused once its log was
	// full: the graph is truncated, and a path through a dropped event
	// ends early at a root that was not the transfer's start.
	Dropped int64
}

// Analyze extracts the critical path of every completion point in r. Paths
// appear in completion (virtual-time) order. A nil or empty recorder yields
// an empty report.
func Analyze(r *obs.CritRec) *Report {
	rep := &Report{Dropped: r.Dropped()}
	if r.Len() == 0 {
		return rep
	}
	// Slack edges keyed by their on-path endpoint, preserving record order.
	altTo := make(map[int32][]obs.CritAlt)
	for _, a := range r.Alts() {
		altTo[a.To] = append(altTo[a.To], a)
	}
	for id := int32(1); int(id) <= r.Len(); id++ {
		if r.Event(id).Done {
			rep.Paths = append(rep.Paths, walk(r, altTo, id))
		}
	}
	for i := range rep.Paths {
		p := &rep.Paths[i]
		for c := obs.Cause(0); c < obs.NumCauses; c++ {
			rep.ByCause[c] += p.ByCause[c]
		}
		rep.Total += p.Total()
	}
	return rep
}

// walk back-walks the binding-parent chain from done to its root and
// reverses it into a Path.
func walk(r *obs.CritRec, altTo map[int32][]obs.CritAlt, done int32) Path {
	var rev []int32
	for id := done; id > 0; {
		rev = append(rev, id)
		p := r.Event(id).Parent
		if p >= id {
			// Defensive: parents are always recorded before children; a
			// forward edge would loop.
			break
		}
		id = p
	}
	d := r.Event(done)
	path := Path{
		Done: done, Kind: d.Kind.String(), Host: r.Name(d.Host), Flow: d.Flow,
		Bytes: d.Len, End: d.T,
	}
	for i := len(rev) - 1; i >= 0; i-- {
		id := rev[i]
		e := r.Event(id)
		s := Step{
			Ev: id, Kind: e.Kind.String(), Host: r.Name(e.Host), Flow: e.Flow,
			Off: e.Off, Len: e.Len, Cause: e.Cause, T: e.T,
		}
		if i == len(rev)-1 { // root
			path.Start = e.T
		} else {
			prev := r.Event(rev[i+1])
			s.Dur = e.T - prev.T
			path.ByCause[e.Cause] += s.Dur
			for _, a := range altTo[id] {
				if int(a.From) <= r.Len() {
					from := r.Event(a.From)
					path.Slack = append(path.Slack, SlackEdge{
						From: a.From, To: id,
						FromKind: from.Kind.String(), ToKind: e.Kind.String(),
						Cause: a.Cause, Slack: prev.T - from.T,
					})
				}
			}
		}
		path.Steps = append(path.Steps, s)
	}
	return path
}

// Last returns the report's final path — the connection-completion path
// (the last message the reader drained) — or nil if none completed.
func (r *Report) Last() *Path {
	if len(r.Paths) == 0 {
		return nil
	}
	return &r.Paths[len(r.Paths)-1]
}

// CauseNs is one cause class's attributed time, for deterministic export
// (cause-index order, zero classes omitted).
type CauseNs struct {
	Cause string `json:"cause"`
	Ns    int64  `json:"ns"`
}

// Causes flattens a per-cause vector in cause-index order, dropping zeros.
func Causes(by [obs.NumCauses]units.Time) []CauseNs {
	out := []CauseNs{}
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		if by[c] != 0 {
			out = append(out, CauseNs{Cause: c.String(), Ns: int64(by[c])})
		}
	}
	return out
}
