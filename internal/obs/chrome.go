package obs

import (
	"encoding/json"

	"repro/internal/units"
)

// ChromeEvent is one Chrome trace-event (load the file in Perfetto or
// chrome://tracing): the one event form every recorder writes its trace
// file in. The span trace emits "X" stages, "i" instants and "s"/"f" flow
// pairs, the critical-path report "X" edges and "i" completions, netobs "C"
// counters. TS and Dur are microseconds of virtual time (Micros); Args is
// the recorder's own payload.
type ChromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Cat  string  `json:"cat,omitempty"`
	ID   int64   `json:"id,omitempty"`
	BP   string  `json:"bp,omitempty"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  string  `json:"pid"`
	TID  string  `json:"tid,omitempty"`
	Args any     `json:"args"`
}

// Micros is t in the trace's unit, microseconds.
func Micros(t units.Time) float64 { return float64(t) / float64(units.Microsecond) }

// ChromeJSON renders evs as a Chrome trace file: compact
// {"traceEvents":[…]} and a newline. Every field is a string, a number or
// a recorder's struct of them, so the bytes are deterministic; a marshal
// failure is a bug and panics.
func ChromeJSON(evs []ChromeEvent) []byte {
	if evs == nil {
		evs = []ChromeEvent{}
	}
	b, err := json.Marshal(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{evs})
	if err != nil {
		panic("obs: chrome trace marshal: " + err.Error())
	}
	return append(b, '\n')
}
