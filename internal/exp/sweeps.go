package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
)

// Additional sweeps and ablations beyond the paper's main figures.

// WindowPoint is one TCP-window measurement.
type WindowPoint struct {
	Window      units.Size
	Throughput  units.Rate
	Efficiency  units.Rate
	Utilization float64
}

// RunWindowSweep reproduces the Section 7.2 observation that reducing the
// TCP window trades throughput for efficiency on the unmodified stack.
func RunWindowSweep(windows []units.Size) []WindowPoint {
	if windows == nil {
		windows = []units.Size{64 * units.KB, 128 * units.KB, 256 * units.KB, 512 * units.KB}
	}
	var out []WindowPoint
	for i, w := range windows {
		tb, a, b := pairTestbed(int64(2000+i), core.HostConfig{Mode: socket.ModeUnmodified}, nil)
		res := ttcp.Run(tb, a, b, ttcp.Params{
			Total: 8 * units.MB, RWSize: 128 * units.KB, Window: w,
			WithUtil: true, WithBackground: true,
		})
		out = append(out, WindowPoint{
			Window:      w,
			Throughput:  res.Throughput,
			Efficiency:  res.Snd.Efficiency,
			Utilization: res.Snd.Utilization,
		})
	}
	return out
}

// FormatWindowSweep renders the window sweep.
func FormatWindowSweep(pts []WindowPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "TCP window sweep, unmodified stack, 128KB writes (Section 7.2)\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %12s\n", "window", "throughput", "efficiency", "utilization")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10v %12.1fMb %12.1fMb %12.2f\n",
			p.Window, p.Throughput.Mbit(), p.Efficiency.Mbit(), p.Utilization)
	}
	return b.String()
}

// LazyPinPoint compares eager vs lazy pinning (the Section 4.4.1
// buffer-reuse extension the paper describes but did not measure).
type LazyPinPoint struct {
	Lazy       bool
	Throughput units.Rate
	Efficiency units.Rate
	VMTime     units.Time
	PinHits    int
}

// RunLazyPinAblation measures the single-copy stack with and without the
// pinned-buffer reuse cache. ttcp reuses one buffer, the best case the
// paper describes: "this overhead can be avoided by keeping the buffers
// pinned and mapped".
func RunLazyPinAblation() []LazyPinPoint {
	var out []LazyPinPoint
	for i, lazy := range []bool{false, true} {
		tb, a, b := pairTestbed(int64(3000+i),
			core.HostConfig{Mode: socket.ModeSingleCopy, LazyUnpin: lazy}, nil)
		res := ttcp.Run(tb, a, b, ttcp.Params{
			Total: 8 * units.MB, RWSize: 128 * units.KB,
			WithUtil: true, WithBackground: true,
		})
		out = append(out, LazyPinPoint{
			Lazy:       lazy,
			Throughput: res.Throughput,
			Efficiency: res.Snd.Efficiency,
			VMTime:     a.K.CategoryTime(kern.CatVM),
			PinHits:    a.VM.PinHits,
		})
	}
	return out
}

// FormatLazyPin renders the ablation.
func FormatLazyPin(pts []LazyPinPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lazy-unpin ablation, single-copy stack, 128KB writes (Section 4.4.1)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %10s\n", "lazy", "throughput", "efficiency", "pin hits")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-8v %12.1fMb %12.1fMb %10d\n",
			p.Lazy, p.Throughput.Mbit(), p.Efficiency.Mbit(), p.PinHits)
	}
	return b.String()
}

// ThresholdPoint is one UIO-threshold measurement (Section 4.4.3).
type ThresholdPoint struct {
	RWSize        units.Size
	ForcedUIO     units.Rate // efficiency with threshold 0 (always UIO)
	WithThreshold units.Rate // efficiency with a 16KB threshold
}

// RunThresholdAblation measures the write-size threshold optimization:
// below it, the copy path beats the descriptor path.
func RunThresholdAblation(sizes []units.Size) []ThresholdPoint {
	if sizes == nil {
		sizes = []units.Size{2 * units.KB, 4 * units.KB, 8 * units.KB, 16 * units.KB, 64 * units.KB}
	}
	run := func(rw, thresh units.Size, seed int64) units.Rate {
		tb, a, b := pairTestbed(seed, core.HostConfig{Mode: socket.ModeSingleCopy}, nil)
		res := ttcp.Run(tb, a, b, ttcp.Params{
			Total: totalFor(rw) / 2, RWSize: rw, UIOThreshold: thresh,
			WithUtil: true, WithBackground: true,
		})
		return res.Snd.Efficiency
	}
	var out []ThresholdPoint
	for i, rw := range sizes {
		out = append(out, ThresholdPoint{
			RWSize:        rw,
			ForcedUIO:     run(rw, 0, int64(4000+i)),
			WithThreshold: run(rw, 16*units.KB, int64(4100+i)),
		})
	}
	return out
}

// FormatThreshold renders the threshold ablation.
func FormatThreshold(pts []ThresholdPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "UIO threshold ablation (Section 4.4.3): sender efficiency (Mb/s)\n")
	fmt.Fprintf(&b, "%-10s %16s %18s\n", "r/w size", "always UIO", "16KB threshold")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10v %16.1f %18.1f\n",
			p.RWSize, p.ForcedUIO.Mbit(), p.WithThreshold.Mbit())
	}
	return b.String()
}
