package critpath

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
)

// WriteWaterfall renders one path as a text waterfall: each step's absolute
// virtual time, the edge duration charged to it, the cause class, and where
// it ran. The per-cause footer sums exactly to the path total.
func WriteWaterfall(w io.Writer, p *Path) {
	fmt.Fprintf(w, "critical path: flow=%d %s@%s bytes=%d total=%v steps=%d\n",
		p.Flow, p.Kind, p.Host, p.Bytes, p.Total(), len(p.Steps))
	fmt.Fprintf(w, "  %12s %12s  %-9s %-14s %-6s %s\n",
		"t(us)", "+dur(us)", "cause", "event", "host", "range")
	for i, s := range p.Steps {
		cause := "-"
		if i > 0 {
			cause = s.Cause.String()
		}
		rng := ""
		if s.Len > 0 {
			rng = fmt.Sprintf("[%d,+%d)", s.Off, s.Len)
		}
		fmt.Fprintf(w, "  %12.3f %12.3f  %-9s %-14s %-6s %s\n",
			obs.Micros(s.T), obs.Micros(s.Dur), cause, s.Kind, s.Host, rng)
	}
	fmt.Fprintf(w, "  by cause:")
	for _, c := range Causes(p.ByCause) {
		fmt.Fprintf(w, " %s=%.3fus", c.Cause, float64(c.Ns)/1e3)
	}
	fmt.Fprintln(w)
	if len(p.Slack) > 0 {
		fmt.Fprintf(w, "  off-path slack (how much later it could have finished):\n")
		for _, s := range p.Slack {
			fmt.Fprintf(w, "    %-14s -> %-14s %-9s slack=%.3fus\n",
				s.FromKind, s.ToKind, s.Cause.String(), obs.Micros(s.Slack))
		}
	}
}

// WriteText renders the whole report: per-cause totals across every
// completed transfer, then (with full set) each path's waterfall.
func (r *Report) WriteText(w io.Writer, full bool) {
	fmt.Fprintf(w, "critical-path analysis: %d completed transfers, %v total latency\n",
		len(r.Paths), r.Total)
	if r.Dropped > 0 {
		fmt.Fprintf(w, "  graph truncated: %d events dropped past the recorder's bound; paths through them end early\n", r.Dropped)
	}
	if r.Total > 0 {
		fmt.Fprintf(w, "  %-9s %14s %8s\n", "cause", "ns", "share")
		for _, c := range Causes(r.ByCause) {
			fmt.Fprintf(w, "  %-9s %14d %7.2f%%\n",
				c.Cause, c.Ns, 100*float64(c.Ns)/float64(int64(r.Total)))
		}
	}
	if full {
		for i := range r.Paths {
			fmt.Fprintln(w)
			WriteWaterfall(w, &r.Paths[i])
		}
	} else if last := r.Last(); last != nil {
		fmt.Fprintln(w)
		WriteWaterfall(w, last)
	}
}

// String renders the summary (no per-path waterfalls).
func (r *Report) String() string {
	var b strings.Builder
	r.WriteText(&b, false)
	return b.String()
}

// chromeArgs is a critical-path event's Chrome args.
type chromeArgs struct {
	Ev    int32  `json:"ev,omitempty"`
	Flow  int    `json:"flow,omitempty"`
	Off   int64  `json:"off,omitempty"`
	Len   int64  `json:"len,omitempty"`
	Cause string `json:"cause,omitempty"`
}

// ChromeJSON renders the report as a Chrome/Perfetto trace: one timeline
// per (host, cause-class) pair, with each critical-path edge as a complete
// event spanning the wait it attributes. Deterministic: events appear in
// path then step order.
func (r *Report) ChromeJSON() []byte {
	var evs []obs.ChromeEvent
	for pi := range r.Paths {
		p := &r.Paths[pi]
		for i, s := range p.Steps {
			if i == 0 || s.Dur == 0 {
				continue
			}
			prev := p.Steps[i-1]
			evs = append(evs, obs.ChromeEvent{
				Name: s.Kind, Ph: "X", Cat: "critpath",
				TS: obs.Micros(prev.T), Dur: obs.Micros(s.Dur),
				PID: "critpath/" + s.Host, TID: s.Cause.String(),
				Args: chromeArgs{Ev: s.Ev, Flow: s.Flow, Off: s.Off, Len: s.Len,
					Cause: s.Cause.String()},
			})
		}
		done := p.Steps[len(p.Steps)-1]
		evs = append(evs, obs.ChromeEvent{
			Name: "done:" + p.Kind, Ph: "i", Cat: "critpath",
			TS: obs.Micros(p.End), PID: "critpath/" + p.Host, TID: "done",
			Args: chromeArgs{Ev: done.Ev, Flow: p.Flow, Len: p.Bytes},
		})
	}
	return obs.ChromeJSON(evs)
}
