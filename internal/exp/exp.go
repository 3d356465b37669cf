// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation from the simulator and formats them as
// the paper reports them (throughput, utilization, and efficiency as a
// function of read/write size; the VM cost table; the Section 7.3
// analysis; the taxonomy; and the head-of-line-blocking study).
package exp

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/obs"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// Point is one measurement at one read/write size.
type Point struct {
	RWSize      units.Size
	Throughput  units.Rate
	Utilization float64 // sender, util methodology
	Efficiency  units.Rate
}

// Figure is one family of curves (Figure 5 or 6).
type Figure struct {
	Name    string
	Machine string
	Sizes   []units.Size
	// Series maps curve name → points (Unmodified, Modified, RawHIPPI).
	Series map[string][]Point
	Order  []string
}

// DefaultSizes is the x axis of Figures 5 and 6: 1 KB to 512 KB.
func DefaultSizes() []units.Size {
	var sizes []units.Size
	for s := 1 * units.KB; s <= 512*units.KB; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// totalFor picks a transfer size that gives steady-state measurements
// without excessive simulation time.
func totalFor(rw units.Size) units.Size {
	t := 256 * rw
	if t < 2*units.MB {
		t = 2 * units.MB
	}
	if t > 16*units.MB {
		t = 16 * units.MB
	}
	// Whole multiple of the write size.
	return (t + rw - 1) / rw * rw
}

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
)

// pairTestbed builds the two-host testbed every ttcp experiment measures
// on: hosts A and B from the template cfg, on CAB nodes 1 and 2, routed to
// each other. enable, if non-nil, attaches recorders to the bare testbed
// first — AddHost wires each layer to whatever is enabled by then.
func pairTestbed(seed int64, cfg core.HostConfig, enable func(*core.Testbed)) (tb *core.Testbed, a, b *core.Host) {
	tb = core.NewTestbed(seed)
	if enable != nil {
		enable(tb)
	}
	cfg.Name, cfg.Addr, cfg.CABNode = "A", addrA, 1
	a = tb.AddHost(cfg)
	cfg.Name, cfg.Addr, cfg.CABNode = "B", addrB, 2
	b = tb.AddHost(cfg)
	tb.RouteCAB(a, b)
	return tb, a, b
}

// fig5Cell runs the Figure-5-style transfer at one read/write size — util
// soaker and background load on, as the paper measured — on a pairTestbed
// of Alpha 3000/400 hosts in the given mode.
func fig5Cell(mode socket.Mode, rw units.Size, seed int64, enable func(*core.Testbed)) *core.Testbed {
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: cost.Alpha400(), Mode: mode}, enable)
	ttcp.Run(tb, a, b, fig5Params(rw))
	return tb
}

func fig5Params(rw units.Size) ttcp.Params {
	return ttcp.Params{Total: totalFor(rw), RWSize: rw, WithUtil: true, WithBackground: true}
}

// stackPoint measures one (machine, mode, size) cell with a fresh testbed.
func stackPoint(mach func() *cost.Machine, mode socket.Mode, rw units.Size, seed int64) Point {
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: mach(), Mode: mode}, nil)
	return pointOf(rw, ttcp.Run(tb, a, b, fig5Params(rw)))
}

func pointOf(rw units.Size, res ttcp.Result) Point {
	return Point{
		RWSize:      rw,
		Throughput:  res.Throughput,
		Utilization: res.Snd.Utilization,
		Efficiency:  res.Snd.Efficiency,
	}
}

// rawPoint measures the raw-HIPPI baseline at one size.
func rawPoint(mach func() *cost.Machine, rw units.Size, seed int64) Point {
	tb := core.NewTestbed(seed)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mach: mach(), CABNode: 1, NoDriver: true})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mach: mach(), CABNode: 2, NoDriver: true})
	return pointOf(rw, ttcp.RunRaw(tb, a, b, ttcp.Params{
		Total: totalFor(rw), RWSize: rw, WithUtil: true,
	}))
}

// RunFigure produces the three curves of Figure 5/6 for one machine.
func RunFigure(name string, mach func() *cost.Machine, sizes []units.Size) Figure {
	if sizes == nil {
		sizes = DefaultSizes()
	}
	fig := Figure{
		Name:    name,
		Machine: mach().Name,
		Sizes:   sizes,
		Series:  make(map[string][]Point),
		Order:   []string{"Unmodified", "Modified", "RawHIPPI"},
	}
	for i, rw := range sizes {
		seed := int64(1000 + i)
		fig.Series["Unmodified"] = append(fig.Series["Unmodified"],
			stackPoint(mach, socket.ModeUnmodified, rw, seed))
		fig.Series["Modified"] = append(fig.Series["Modified"],
			stackPoint(mach, socket.ModeSingleCopy, rw, seed))
		fig.Series["RawHIPPI"] = append(fig.Series["RawHIPPI"],
			rawPoint(mach, rw, seed))
	}
	return fig
}

// MetricsRun runs one instrumented Figure-5-style cell (single-copy stack,
// Alpha 3000/400) and returns the full telemetry snapshot. Deterministic:
// the same (rw, seed) always yields byte-identical Snapshot.JSON().
func MetricsRun(rw units.Size, seed int64) obs.Snapshot {
	tb := fig5Cell(socket.ModeSingleCopy, rw, seed, func(tb *core.Testbed) { tb.EnableTelemetry() })
	return tb.Tel.Snapshot()
}

// Figure5 regenerates Figure 5 (Alpha 3000/400).
func Figure5(sizes []units.Size) Figure {
	return RunFigure("Figure 5", cost.Alpha400, sizes)
}

// Figure6 regenerates Figure 6 (Alpha 3000/300LX).
func Figure6(sizes []units.Size) Figure {
	return RunFigure("Figure 6", cost.Alpha300, sizes)
}

// Crossover returns the read/write size at which the modified stack's
// efficiency overtakes the unmodified stack's (the paper: between 8 and
// 16 KByte).
func (f Figure) Crossover() (units.Size, bool) {
	un, mod := f.Series["Unmodified"], f.Series["Modified"]
	for i := range un {
		if mod[i].Efficiency > un[i].Efficiency {
			return un[i].RWSize, true
		}
	}
	return 0, false
}

// Format renders the figure as three paper-style tables.
func (f Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (TCP window 512KB, MTU 32KB)\n", f.Name, f.Machine)
	metric := []struct {
		title string
		get   func(Point) string
	}{
		{"(a) Throughput (Mb/s)", func(p Point) string { return fmt.Sprintf("%8.1f", p.Throughput.Mbit()) }},
		{"(b) Utilization (sender)", func(p Point) string { return fmt.Sprintf("%8.2f", p.Utilization) }},
		{"(c) Efficiency (Mb/s)", func(p Point) string { return fmt.Sprintf("%8.1f", p.Efficiency.Mbit()) }},
	}
	for _, m := range metric {
		fmt.Fprintf(&b, "\n%s\n", m.title)
		fmt.Fprintf(&b, "%-12s", "r/w size")
		for _, s := range f.Order {
			if _, ok := f.Series[s]; ok {
				fmt.Fprintf(&b, "%12s", s)
			}
		}
		fmt.Fprintln(&b)
		for i, sz := range f.Sizes {
			fmt.Fprintf(&b, "%-12v", sz)
			for _, s := range f.Order {
				pts, ok := f.Series[s]
				if !ok {
					continue
				}
				fmt.Fprintf(&b, "%12s", m.get(pts[i]))
			}
			fmt.Fprintln(&b)
		}
	}
	if x, ok := f.Crossover(); ok {
		fmt.Fprintf(&b, "\nEfficiency crossover at %v (paper: between 8KB and 16KB)\n", x)
	}
	return b.String()
}

// HOLResult pairs the two queuing disciplines of the Section 2.1 study.
type HOLResult struct {
	Ports               int
	FIFOUtilization     float64
	ChannelsUtilization float64
}

// RunHOL reproduces the head-of-line-blocking comparison.
func RunHOL(ports, slots int, seed int64) HOLResult {
	return HOLResult{
		Ports:               ports,
		FIFOUtilization:     hippi.RunFIFO(ports, slots, seed).Utilization,
		ChannelsUtilization: hippi.RunLogicalChannels(ports, slots, seed).Utilization,
	}
}

// FormatHOL renders the HOL study.
func FormatHOL(rs []HOLResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Head-of-line blocking (Section 2.1; paper cites ≤58%% for FIFO)\n")
	fmt.Fprintf(&b, "%-8s %14s %20s\n", "ports", "FIFO util", "logical channels")
	sort.Slice(rs, func(i, j int) bool { return rs[i].Ports < rs[j].Ports })
	for _, r := range rs {
		fmt.Fprintf(&b, "%-8d %14.3f %20.3f\n", r.Ports, r.FIFOUtilization, r.ChannelsUtilization)
	}
	return b.String()
}

// jsonPoint is one measurement in the machine-readable figure export.
type jsonPoint struct {
	RWSizeBytes    int64   `json:"rwsize_bytes"`
	ThroughputMbps float64 `json:"throughput_mbps"`
	Utilization    float64 `json:"utilization"`
	EfficiencyMbps float64 `json:"efficiency_mbps"`
}

// jsonSeries is one curve of a machine-readable figure export.
type jsonSeries[P any] struct {
	Name   string `json:"name"`
	Points []P    `json:"points"`
}

// jsonFigure is the machine-readable figure envelope (Side only on the
// Figure 7/8 breakdowns).
type jsonFigure[P any] struct {
	Name    string          `json:"name"`
	Side    string          `json:"side,omitempty"`
	Machine string          `json:"machine"`
	Series  []jsonSeries[P] `json:"series"`
}

// figureJSON renders one figure family as deterministic JSON: series in
// order (slices, not the series map), so identical runs produce identical
// bytes.
func figureJSON[T, P any](name, side, machine string, order []string, series map[string][]T, point func(T) P) []byte {
	jf := jsonFigure[P]{Name: name, Side: side, Machine: machine}
	for _, s := range order {
		pts, ok := series[s]
		if !ok {
			continue
		}
		js := jsonSeries[P]{Name: s, Points: []P{}}
		for _, p := range pts {
			js.Points = append(js.Points, point(p))
		}
		jf.Series = append(jf.Series, js)
	}
	return benchJSON(jf)
}

// benchJSON renders a baseline file: indented and newline-terminated.
// Every bench type is slices and structs (encoding/json sorts the one
// map's keys), so identical runs marshal to identical bytes.
func benchJSON(v any) []byte {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic("exp: baseline marshal: " + err.Error())
	}
	return append(out, '\n')
}

// JSON renders the figure's curves so future changes have a perf
// trajectory to diff against.
func (f Figure) JSON() []byte {
	return figureJSON(f.Name, "", f.Machine, f.Order, f.Series, func(p Point) jsonPoint {
		return jsonPoint{
			RWSizeBytes:    int64(p.RWSize),
			ThroughputMbps: p.Throughput.Mbit(),
			Utilization:    p.Utilization,
			EfficiencyMbps: p.Efficiency.Mbit(),
		}
	})
}

// CSV renders the figure as plot-ready rows:
// series,rwsize_bytes,throughput_mbps,utilization,efficiency_mbps.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintln(&b, "series,rwsize_bytes,throughput_mbps,utilization,efficiency_mbps")
	for _, s := range f.Order {
		pts, ok := f.Series[s]
		if !ok {
			continue
		}
		for _, p := range pts {
			fmt.Fprintf(&b, "%s,%d,%.2f,%.4f,%.2f\n",
				s, int64(p.RWSize), p.Throughput.Mbit(), p.Utilization, p.Efficiency.Mbit())
		}
	}
	return b.String()
}
