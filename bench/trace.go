package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// span is one timed call made by the benchmark's own code into a layer.
// Parent is the span that was open when this one began (-1 for the root),
// so a span's self time is its duration minus its children's.
type span struct {
	ID     int
	Parent int
	Name   string
	Start  time.Duration // since the tracer was created
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin and end do nothing, so the end-to-end repetitions
// pay one nil check per boundary.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	n := len(t.open)
	if n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	t.spans[id].End = time.Since(t.t0)
	t.open = t.open[:n-1]
}

// selfTimes returns each span's duration minus the time its direct
// children cover, indexed by span id.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName sums self time over spans of one name; the repetitions of a
// phase ("rep/0", "rep/1", ...) count as one name, "rep/*".
func selfByName(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for id, d := range selfTimes(spans) {
		name := spans[id].Name
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] + "/*"
			}
		}
		out[name] += d
	}
	return out
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeJSON renders the spans as a Chrome trace (chrome://tracing,
// Perfetto): complete events on one thread, nested by time, with the span
// id, parent id, self time and the workload as the shared identifier.
func (t *tracer) chromeJSON() ([]byte, error) {
	self := selfTimes(t.spans)
	evs := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "workload": t.workload,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		})
	}
	return json.MarshalIndent(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}, "", " ")
}

// write stores the Chrome trace as <dir>/<workload>.trace.json.
func (t *tracer) write(dir string) (string, error) {
	b, err := t.chromeJSON()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.workload+".trace.json")
	return path, os.WriteFile(path, b, 0o644)
}

// formatSelf renders the self-time table, largest first.
func formatSelf(spans []span) string {
	by := selfByName(spans)
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if by[names[i]] != by[names[j]] {
			return by[names[i]] > by[names[j]]
		}
		return names[i] < names[j]
	})
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  %-34s %10.3f ms self\n", n, float64(by[n].Nanoseconds())/1e6)
	}
	return out
}
