package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/units"
)

// Metric is one exported name/value pair.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HostMetrics is one host's metrics, sorted by name.
type HostMetrics struct {
	Host    string   `json:"host"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot is the full exported state: per-host metrics (hosts in creation
// order, metrics sorted by name) plus the span summary. All slices — never
// maps — so marshaling is byte-deterministic.
type Snapshot struct {
	Hosts []HostMetrics `json:"hosts"`
	Spans *SpanStats    `json:"spans,omitempty"`
}

// Snapshot exports one registry's metrics, sorted by name. Gauges export
// both the level and "<name>.hwm". Safe on a nil registry (empty result).
func (r *Registry) Snapshot() HostMetrics {
	if r == nil {
		return HostMetrics{}
	}
	hm := HostMetrics{Host: r.host}
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			hm.Metrics = append(hm.Metrics, Metric{Name: e.name, Value: e.c.Value()})
		case kindGauge:
			hm.Metrics = append(hm.Metrics,
				Metric{Name: e.name, Value: e.g.Value()},
				Metric{Name: e.name + ".hwm", Value: e.g.HighWater()})
		case kindFunc:
			hm.Metrics = append(hm.Metrics, Metric{Name: e.name, Value: e.fn()})
		}
	}
	sort.Slice(hm.Metrics, func(i, j int) bool { return hm.Metrics[i].Name < hm.Metrics[j].Name })
	return hm
}

// Snapshot exports the whole telemetry state.
func (t *Telemetry) Snapshot() Snapshot {
	var s Snapshot
	for _, r := range t.regs {
		s.Hosts = append(s.Hosts, r.Snapshot())
	}
	st := t.trace.Stats()
	if st.Spans > 0 || len(st.Stages) > 0 {
		s.Spans = &st
	}
	return s
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("obs: snapshot marshal: " + err.Error())
	}
	return append(b, '\n')
}

// Format renders the snapshot as a human-readable table: per-host counters,
// the per-stage breakdown, and the end-to-end latency histogram.
func (s Snapshot) Format() string {
	var b strings.Builder
	for _, h := range s.Hosts {
		if len(h.Metrics) == 0 {
			continue
		}
		fmt.Fprintf(&b, "[%s]\n", h.Host)
		for _, m := range h.Metrics {
			fmt.Fprintf(&b, "  %-34s %12d\n", m.Name, m.Value)
		}
	}
	if s.Spans == nil {
		return b.String()
	}
	sp := s.Spans
	fmt.Fprintf(&b, "\npacket spans: %d completed\n", sp.Spans)
	if len(sp.Stages) > 0 {
		fmt.Fprintf(&b, "  %-10s %8s %14s %14s\n", "stage", "count", "total", "mean")
		for _, st := range sp.Stages {
			fmt.Fprintf(&b, "  %-10s %8d %14v %14v\n",
				st.Stage, st.Count, units.Time(st.TotalNs), units.Time(st.AvgNs))
		}
	}
	if sp.Latency.Count > 0 {
		fmt.Fprintf(&b, "  end-to-end latency (min %v, mean %v, max %v):\n",
			units.Time(sp.Latency.MinNs),
			units.Time(sp.Latency.SumNs/sp.Latency.Count),
			units.Time(sp.Latency.MaxNs))
		var peak int64
		for _, bk := range sp.Latency.Buckets {
			if bk.Count > peak {
				peak = bk.Count
			}
		}
		for _, bk := range sp.Latency.Buckets {
			bar := int(bk.Count * 40 / peak)
			if bar == 0 && bk.Count > 0 {
				bar = 1
			}
			fmt.Fprintf(&b, "    <=%10v %-40s %d\n",
				units.Time(bk.LeNs), strings.Repeat("#", bar), bk.Count)
		}
	}
	if sp.DroppedEvents > 0 {
		fmt.Fprintf(&b, "  (trace events dropped: %d)\n", sp.DroppedEvents)
	}
	return b.String()
}

// chromeFile is the Chrome trace-event JSON envelope.
type chromeFile struct {
	TraceEvents []chromeJSON `json:"traceEvents"`
}

// Chrome renders the collected stage events as Chrome trace-event JSON
// (load in Perfetto or chrome://tracing); timestamps are microseconds of
// virtual time, pid is the originating host, tid the stage.
func (t *Telemetry) Chrome() []byte {
	return t.chromeWhere(0, nil)
}

// ChromeFlow renders only the events of one data flow (args.flow == flow,
// plus that flow's cross-host "s"/"f" binding pairs) — the journey of one
// connection's bytes, ready for Perfetto.
func (t *Telemetry) ChromeFlow(flow int) []byte {
	return t.chromeWhere(0, func(ev *chromeEvent) bool { return ev.args.Flow == flow })
}

// ChromeTail renders the most recent n trace events — the trace half of a
// flight-recorder dump.
func (t *Telemetry) ChromeTail(n int) []byte {
	from := 0
	if t.trace != nil {
		from = max(t.trace.events.Len()-n, 0)
	}
	return t.chromeWhere(from, nil)
}

// chromeWhere renders the trace events from index from on that keep
// accepts (all of them for a nil keep), resolved into Chrome's form.
func (t *Telemetry) chromeWhere(from int, keep func(*chromeEvent) bool) []byte {
	f := chromeFile{TraceEvents: []chromeJSON{}}
	if tr := t.trace; tr != nil {
		if keep == nil {
			f.TraceEvents = make([]chromeJSON, 0, tr.events.Len()-from)
		}
		for i := from; i < tr.events.Len(); i++ {
			if ev := tr.events.At(i); keep == nil || keep(ev) {
				f.TraceEvents = append(f.TraceEvents, tr.chrome(ev))
			}
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		panic("obs: chrome trace marshal: " + err.Error())
	}
	return append(b, '\n')
}
