// The Figure 7–9 family: where the CPU time goes. Figures 7 and 8 break
// the sender's and receiver's CPU utilization down by accounting category
// as a function of read/write size, for the unmodified and single-copy
// stacks; Figure 9 regroups the sender's time into the Section 7.3 cost
// classes (per-byte data touching, per-packet protocol/driver/interrupt,
// per-call syscall/VM) as nanoseconds per transferred kilobyte. These runs
// measure the kernel's exact virtual-time accounting directly — no util
// soaker — so each category's share is ground truth, not an estimate.
package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
)

// CatShare is one category's slice of a host's CPU time.
type CatShare struct {
	Category string  `json:"category"`
	Ns       int64   `json:"ns"`
	Share    float64 `json:"share"` // of the host's busy time
}

// BreakdownPoint is one (mode, size) cell of Figure 7 or 8: a host's CPU
// time by category, plus the transfer's headline numbers.
type BreakdownPoint struct {
	RWSize      units.Size
	Throughput  units.Rate
	Utilization float64 // busy / elapsed, ground truth
	Efficiency  units.Rate
	BusyNs      int64
	Shares      []CatShare // kernel category order
}

// Share returns the named category's share (0 if absent).
func (p BreakdownPoint) Share(cat string) float64 {
	for _, s := range p.Shares {
		if s.Category == cat {
			return s.Share
		}
	}
	return 0
}

// BreakdownFigure is one side's curves (Figure 7: sender, 8: receiver).
type BreakdownFigure struct {
	Name    string
	Side    string
	Machine string
	Sizes   []units.Size
	Order   []string
	Series  map[string][]BreakdownPoint
}

// DecompPoint is one Figure 9 cell: the sender's CPU cost per transferred
// kilobyte, split into the Section 7.3 classes.
type DecompPoint struct {
	RWSize      units.Size
	PerByteNs   int64 // copy + csum
	PerPacketNs int64 // proto + driver + intr
	PerCallNs   int64 // syscall + vm
	OtherNs     int64 // app
	TotalBytes  units.Size
	Utilization float64
	Efficiency  units.Rate
}

// NsPerKB returns (perByte, perPacket, perCall) normalized to the bytes
// moved, the paper's cost-per-unit-of-work view.
func (p DecompPoint) NsPerKB() (perByte, perPacket, perCall float64) {
	kb := float64(p.TotalBytes) / float64(units.KB)
	if kb == 0 {
		return
	}
	return float64(p.PerByteNs) / kb, float64(p.PerPacketNs) / kb, float64(p.PerCallNs) / kb
}

// DecompFigure is the Figure 9 envelope.
type DecompFigure struct {
	Name    string
	Machine string
	Sizes   []units.Size
	Order   []string
	Series  map[string][]DecompPoint
}

// breakdownModes are the two stacks the figures compare.
var breakdownModes = []struct {
	Name string
	Mode socket.Mode
}{
	{"Unmodified", socket.ModeUnmodified},
	{"Modified", socket.ModeSingleCopy},
}

// breakdownCell runs one (mode, size) transfer and returns both sides'
// category breakdowns from the same run.
func breakdownCell(mode socket.Mode, rw units.Size, seed int64) (snd, rcv BreakdownPoint) {
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: cost.Alpha400(), Mode: mode}, nil)
	res := ttcp.Run(tb, a, b, ttcp.Params{Total: totalFor(rw), RWSize: rw})
	return breakdownPoint(rw, res, a), breakdownPoint(rw, res, b)
}

func breakdownPoint(rw units.Size, res ttcp.Result, h *core.Host) BreakdownPoint {
	k := h.K
	p := BreakdownPoint{
		RWSize:     rw,
		Throughput: res.Throughput,
		BusyNs:     int64(k.BusyTime()),
	}
	if res.Elapsed > 0 {
		p.Utilization = float64(k.BusyTime()) / float64(res.Elapsed)
	}
	if p.Utilization > 0 {
		p.Efficiency = units.Rate(float64(res.Throughput) / p.Utilization)
	}
	for i, name := range kern.CategoryNames() {
		ns := int64(k.CategoryTime(kern.Category(i)))
		sh := 0.0
		if p.BusyNs > 0 {
			sh = float64(ns) / float64(p.BusyNs)
		}
		p.Shares = append(p.Shares, CatShare{Category: name, Ns: ns, Share: sh})
	}
	return p
}

// decompose regroups a sender breakdown into the Figure 9 cost classes.
func decompose(p BreakdownPoint) DecompPoint {
	d := DecompPoint{
		RWSize:      p.RWSize,
		TotalBytes:  totalFor(p.RWSize),
		Utilization: p.Utilization,
		Efficiency:  p.Efficiency,
	}
	for _, s := range p.Shares {
		switch s.Category {
		case "copy", "csum":
			d.PerByteNs += s.Ns
		case "proto", "driver", "intr":
			d.PerPacketNs += s.Ns
		case "syscall", "vm":
			d.PerCallNs += s.Ns
		default:
			d.OtherNs += s.Ns
		}
	}
	return d
}

// RunBreakdowns measures the whole Figure 7–9 family in one sweep: each
// (mode, size) transfer feeds the sender point of Figure 7, the receiver
// point of Figure 8, and the decomposition point of Figure 9.
func RunBreakdowns(sizes []units.Size) (fig7, fig8 BreakdownFigure, fig9 DecompFigure) {
	if sizes == nil {
		sizes = DefaultSizes()
	}
	mach := cost.Alpha400().Name
	mk := func(name, side string) BreakdownFigure {
		return BreakdownFigure{Name: name, Side: side, Machine: mach, Sizes: sizes,
			Order:  []string{"Unmodified", "Modified"},
			Series: make(map[string][]BreakdownPoint)}
	}
	fig7 = mk("Figure 7", "sender")
	fig8 = mk("Figure 8", "receiver")
	fig9 = DecompFigure{Name: "Figure 9", Machine: mach, Sizes: sizes,
		Order:  []string{"Unmodified", "Modified"},
		Series: make(map[string][]DecompPoint)}
	for i, rw := range sizes {
		seed := int64(3000 + i)
		for _, m := range breakdownModes {
			snd, rcv := breakdownCell(m.Mode, rw, seed)
			fig7.Series[m.Name] = append(fig7.Series[m.Name], snd)
			fig8.Series[m.Name] = append(fig8.Series[m.Name], rcv)
			fig9.Series[m.Name] = append(fig9.Series[m.Name], decompose(snd))
		}
	}
	return fig7, fig8, fig9
}

// Format renders the breakdown as one paper-style table per stack: rows
// are read/write sizes, columns the categories' share of CPU busy time.
func (f BreakdownFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s CPU breakdown, %s (%% of busy time)\n", f.Name, f.Side, f.Machine)
	cats := kern.CategoryNames()
	for _, mode := range f.Order {
		pts, ok := f.Series[mode]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "\n%s\n%-12s", mode, "r/w size")
		for _, c := range cats {
			fmt.Fprintf(&b, "%9s", c)
		}
		fmt.Fprintf(&b, "%9s%10s\n", "util", "eff Mb/s")
		for _, p := range pts {
			fmt.Fprintf(&b, "%-12v", p.RWSize)
			for _, c := range cats {
				fmt.Fprintf(&b, "%8.1f%%", 100*p.Share(c))
			}
			fmt.Fprintf(&b, "%9.2f%10.1f\n", p.Utilization, p.Efficiency.Mbit())
		}
	}
	return b.String()
}

// Format renders Figure 9's per-kilobyte cost decomposition.
func (f DecompFigure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — sender cost per transferred KB, %s (ns/KB)\n", f.Name, f.Machine)
	for _, mode := range f.Order {
		pts, ok := f.Series[mode]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "\n%s\n%-12s%12s%12s%12s%9s%10s\n", mode,
			"r/w size", "per-byte", "per-pkt", "per-call", "util", "eff Mb/s")
		for _, p := range pts {
			pb, pp, pc := p.NsPerKB()
			fmt.Fprintf(&b, "%-12v%12.1f%12.1f%12.1f%9.2f%10.1f\n",
				p.RWSize, pb, pp, pc, p.Utilization, p.Efficiency.Mbit())
		}
	}
	return b.String()
}

// Machine-readable exports, through figureJSON.

type jsonBreakdownPoint struct {
	RWSizeBytes    int64      `json:"rwsize_bytes"`
	ThroughputMbps float64    `json:"throughput_mbps"`
	Utilization    float64    `json:"utilization"`
	EfficiencyMbps float64    `json:"efficiency_mbps"`
	BusyNs         int64      `json:"busy_ns"`
	Shares         []CatShare `json:"shares"`
}

// JSON renders the figure as deterministic JSON.
func (f BreakdownFigure) JSON() []byte {
	return figureJSON(f.Name, f.Side, f.Machine, f.Order, f.Series, func(p BreakdownPoint) jsonBreakdownPoint {
		return jsonBreakdownPoint{
			RWSizeBytes:    int64(p.RWSize),
			ThroughputMbps: p.Throughput.Mbit(),
			Utilization:    p.Utilization,
			EfficiencyMbps: p.Efficiency.Mbit(),
			BusyNs:         p.BusyNs,
			Shares:         p.Shares,
		}
	})
}

type jsonDecompPoint struct {
	RWSizeBytes    int64   `json:"rwsize_bytes"`
	PerByteNsPerKB float64 `json:"per_byte_ns_per_kb"`
	PerPktNsPerKB  float64 `json:"per_packet_ns_per_kb"`
	PerCallNsPerKB float64 `json:"per_call_ns_per_kb"`
	Utilization    float64 `json:"utilization"`
	EfficiencyMbps float64 `json:"efficiency_mbps"`
}

// JSON renders Figure 9 as deterministic JSON.
func (f DecompFigure) JSON() []byte {
	return figureJSON(f.Name, "", f.Machine, f.Order, f.Series, func(p DecompPoint) jsonDecompPoint {
		pb, pp, pc := p.NsPerKB()
		return jsonDecompPoint{
			RWSizeBytes:    int64(p.RWSize),
			PerByteNsPerKB: pb,
			PerPktNsPerKB:  pp,
			PerCallNsPerKB: pc,
			Utilization:    p.Utilization,
			EfficiencyMbps: p.Efficiency.Mbit(),
		}
	})
}
