package netobs

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/units"
)

// counterVal is a counter event's args: the one value of its named track.
type counterVal struct {
	V int64 `json:"v"`
}

// Chrome renders the recorder's series as Chrome-trace counter tracks
// (load chrome://tracing or Perfetto).  Each flow contributes cwnd,
// ssthresh, flight and snd_wnd tracks under its host's pid; each wire port
// contributes tx/rx busy-fraction tracks under the wire's pid.
func (r *Recorder) Chrome() []byte {
	if r == nil {
		return nil
	}
	return r.Snapshot().Chrome()
}

// Chrome renders a saved wire-series dump (the loadgen -netobs-json
// format) as the same counter tracks the live recorder produces, so
// cmd/trace can re-render a capture without re-running the simulation.
// Multi-switch fabrics carry named trunk ports whose synthetic ids are
// namespaced above host nodes; those tracks are labeled by trunk name so
// ports from different switches can't collide on a port number.
func (d *Dump) Chrome() []byte {
	if d == nil {
		return nil
	}
	var evs []obs.ChromeEvent
	add := func(pid, name string, tNs, v int64) {
		evs = append(evs, obs.ChromeEvent{
			Name: name, Ph: "C", TS: obs.Micros(units.Time(tNs)), PID: pid, Args: counterVal{V: v},
		})
	}
	for i := range d.Flows {
		fr := &d.Flows[i]
		tag := "flow " + strconv.Itoa(fr.Port) + ":" + strconv.Itoa(fr.RPort)
		for j := range fr.Samples {
			s := &fr.Samples[j]
			add(fr.Host, tag+" cwnd", s.TNs, s.Cwnd)
			add(fr.Host, tag+" ssthresh", s.TNs, s.Ssthresh)
			add(fr.Host, tag+" flight", s.TNs, s.Flight)
			add(fr.Host, tag+" snd_wnd", s.TNs, s.SndWnd)
		}
	}
	for _, w := range d.Wires {
		for _, p := range w.Ports {
			label := "node " + strconv.Itoa(p.Node)
			if p.Name != "" {
				label = "link " + p.Name
			}
			emitPerMille(add, "wire "+w.Label, label+" tx_busy_pm", p.TxBusyPerMille, w.WindowNs)
			emitPerMille(add, "wire "+w.Label, label+" rx_busy_pm", p.RxBusyPerMille, w.WindowNs)
		}
	}
	return obs.ChromeJSON(evs)
}

func emitPerMille(add func(pid, name string, tNs, v int64), pid, name string, pm []int64, windowNs int64) {
	for i, v := range pm {
		add(pid, name, windowNs*int64(i), v)
	}
}
