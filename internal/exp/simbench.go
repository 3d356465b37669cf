package exp

import (
	"fmt"
	"strings"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/fault/soak"
	"repro/internal/load"
	"repro/internal/obs/engine"
	"repro/internal/socket"
	"repro/internal/units"
)

// SimBench is the simulator self-observatory baseline (BENCH_sim.json): a
// fixed seeded workload matrix run under the engine meta-observer. Each
// workload's "deterministic" section is a pure function of the virtual
// event sequence, and the gate compares its bytes: any change to how many
// events the engine dispatches per unit of simulated traffic, or to its
// queue depths, shows up here first. What those events cost in host time
// is measured by the repository benchmark (bench/), in paired runs.
type SimBench struct {
	Workloads []SimWorkload `json:"workloads"`
}

// SimWorkload is one workload's engine meta-profile.
type SimWorkload struct {
	Name string `json:"name"`
	// Cases is the number of seeded testbeds folded into this entry (1
	// except for the soak matrix).
	Cases int `json:"cases"`
	// VirtualNs is the total simulated time covered.
	VirtualNs int64                `json:"virtual_ns"`
	Det       engine.Deterministic `json:"deterministic"`
}

// simFig5 runs the Figure-5 single-copy transfer cell (64 KB read/write,
// 16 MB total) under the observer.
func simFig5(o *engine.Observer) (units.Time, int, error) {
	tb := fig5Cell(socket.ModeSingleCopy, 64*units.KB, 1, core.Recorders{EngObs: o})
	return tb.Eng.Now(), 1, nil
}

// simSoak runs the full 24-case soak matrix through one observer, so
// the entry profiles the engine under faults, retransmission timers, and
// 64-flow contention. Any soak invariant violation fails the
// bench: a broken simulation's engine profile is meaningless.
func simSoak(o *engine.Observer) (units.Time, int, error) {
	var vtime units.Time
	cases := soak.Matrix()
	for i := range cases {
		cases[i].EngObs = o
		out := soak.Run(cases[i])
		if len(out.Failures) > 0 {
			return 0, 0, fmt.Errorf("soak %s: %s", cases[i].Name, out.Failures[0])
		}
		vtime += out.A.K.Eng.Now()
	}
	return vtime, len(cases), nil
}

// simLoadScenario is the simbench many-flow shape at the given scale:
// the mixed open-loop scenario of BENCH_load.json at 256 flows, and the
// TestLoad1024 scale-acceptance shape at 1024.
func simLoadScenario(flows int) load.Scenario {
	if flows == 1024 {
		return load.Scenario{
			Name:     "sim-1024",
			Seed:     9,
			Clients:  8,
			Servers:  4,
			Flows:    1024,
			UDPFrac:  0.25,
			Mode:     socket.ModeSingleCopy,
			Requests: 2,
			OpenLoop: true,
			Rate:     2000,
			Stagger:  units.Millisecond,
			Arbiter:  &cab.ArbConfig{},
		}
	}
	s := loadBenchMixed()
	s.Name = "sim-256"
	return s
}

// simLoad runs the many-flow scenario of the given scale under the
// observer.
func simLoad(flows int) func(*engine.Observer) (units.Time, int, error) {
	return func(o *engine.Observer) (units.Time, int, error) {
		s := simLoadScenario(flows)
		s.EngObs = o
		rep, err := runLoad(s)
		if err != nil {
			return 0, 0, err
		}
		return units.Time(rep.VTimeSec * 1e9), 1, nil
	}
}

// RunSimBench executes the simbench workload matrix, each workload under a
// fresh observer. With quick set it runs only the cheap workloads (the
// Figure-5 cell and the 256-flow load run) — the shape the determinism
// test uses.
func RunSimBench(quick bool) (SimBench, error) {
	var b SimBench
	for _, w := range []struct {
		name string
		full bool // skipped by quick
		run  func(*engine.Observer) (vtime units.Time, cases int, err error)
	}{
		{"fig5-xfer", false, simFig5},
		{"soak-matrix", true, simSoak},
		{"load-256", false, simLoad(256)},
		{"load-1024", true, simLoad(1024)},
	} {
		if quick && w.full {
			continue
		}
		o := engine.New()
		vtime, cases, err := w.run(o)
		if err != nil {
			return b, err
		}
		b.Workloads = append(b.Workloads, SimWorkload{
			Name: w.name, Cases: cases, VirtualNs: int64(vtime), Det: o.Snapshot().Det,
		})
	}
	return b, nil
}

// Format renders a human summary.
func (b SimBench) Format() string {
	var sb strings.Builder
	sb.WriteString("Simulator self-observatory (engine meta-profile):\n")
	for _, w := range b.Workloads {
		fmt.Fprintf(&sb, "  %-12s cases=%-2d vtime=%8.3fs  events=%9d  queue hw %5d  timer hw %4d  kern charges %8d\n",
			w.Name, w.Cases, float64(w.VirtualNs)/1e9, w.Det.EventsTotal,
			w.Det.QueueDepthHW, w.Det.PendingHW.Timer, w.Det.KernCharges)
		fmt.Fprintf(&sb, "  %-12s   by kind: proc %d, timer %d, wire %d, dma %d, generic %d\n",
			"", w.Det.Events.Proc, w.Det.Events.Timer, w.Det.Events.Wire, w.Det.Events.DMA, w.Det.Events.Generic)
	}
	return sb.String()
}
