package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/socket"
	"repro/internal/units"
)

// profileRun is one Figure-5-style 64 KB cell with the virtual-time
// profiler on; seriesRun the same with the utilization sampler ticking
// every 100 µs of virtual time.
func profileRun(mode socket.Mode) *core.Testbed {
	return fig5Cell(mode, 64*units.KB, 5, core.Recorders{Profile: true})
}

func seriesRun() *core.Testbed {
	return fig5Cell(socket.ModeSingleCopy, 64*units.KB, 9, core.Recorders{Series: 100 * units.Microsecond})
}

// TestProfilerExactSum is the profiler's core invariant: folded-stack
// virtual-CPU totals sum exactly — not approximately — to each kernel's
// busy time. The profiler is sampling-free, so any missing or double
// attribution is a hard failure.
func TestProfilerExactSum(t *testing.T) {
	tb := profileRun(socket.ModeSingleCopy)
	perHost := map[string]int64{}
	for _, line := range strings.Split(strings.TrimSuffix(tb.Prof.Folded(), "\n"), "\n") {
		stack, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed folded line %q", line)
		}
		ns, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		host, _, _ := strings.Cut(stack, ";")
		perHost[host] += ns
	}
	for _, h := range tb.Hosts {
		busy := int64(h.K.BusyTime())
		if busy == 0 {
			t.Fatalf("host %s did no work", h.Name)
		}
		if perHost[h.Name] != busy {
			t.Errorf("host %s: folded sum %d != kern.cpu_busy_ns %d",
				h.Name, perHost[h.Name], busy)
		}
		if got := h.K.Prof.TreeTotal(); got != busy {
			t.Errorf("host %s: profile tree total %d != busy %d", h.Name, got, busy)
		}
	}
}

// TestProfilerDeterministic: same seed, byte-identical exports.
func TestProfilerDeterministic(t *testing.T) {
	tb1 := profileRun(socket.ModeSingleCopy)
	tb2 := profileRun(socket.ModeSingleCopy)
	if tb1.Prof.Folded() != tb2.Prof.Folded() {
		t.Fatal("same-seed runs produced different folded stacks")
	}
	if !bytes.Equal(tb1.Prof.Snapshot().JSON(), tb2.Prof.Snapshot().JSON()) {
		t.Fatal("same-seed runs produced different profile JSON")
	}
}

// TestProfilerStackShape pins the layer framing: the send path shows the
// socket→tcp_output→ip_output→cabdrv nesting, the receive path the
// interrupt-side mirror, and the data-touching categories appear only
// where the stack variant predicts them.
func TestProfilerStackShape(t *testing.T) {
	single := profileRun(socket.ModeSingleCopy).Prof.Folded()
	for _, want := range []string{
		"A;ttcp-snd;socket;tcp_output;ip_output;cabdrv;driver ",
		"A;ttcp-snd;socket;vm ",
		"B;intr;cabdrv_rx;ip_input;tcp_input;proto ",
		"B;intr;intr ",
	} {
		if !strings.Contains(single, want) {
			t.Errorf("single-copy profile missing %q", want)
		}
	}
	if strings.Contains(single, ";csum ") {
		t.Error("single-copy profile charges software checksum time")
	}

	unmod := profileRun(socket.ModeUnmodified).Prof.Folded()
	for _, want := range []string{
		"A;ttcp-snd;socket;copy ",
		"A;ttcp-snd;socket;tcp_output;csum ",
	} {
		if !strings.Contains(unmod, want) {
			t.Errorf("unmodified profile missing %q", want)
		}
	}
}

// TestProfilerVirtualTimeNeutral: profiling observes the run without
// changing it.
func TestProfilerVirtualTimeNeutral(t *testing.T) {
	tbOn, on := shortRun(3, core.Recorders{Profile: true})
	tbOff, off := shortRun(3, core.Recorders{})
	if on.Elapsed != off.Elapsed || on.Bytes != off.Bytes || on.Throughput != off.Throughput {
		t.Fatalf("profiling changed the run: on=(%v %v) off=(%v %v)",
			on.Elapsed, on.Throughput, off.Elapsed, off.Throughput)
	}
	for i := range tbOn.Hosts {
		if tbOn.Hosts[i].K.BusyTime() != tbOff.Hosts[i].K.BusyTime() {
			t.Fatalf("profiling changed host %s busy time", tbOn.Hosts[i].Name)
		}
	}
}

// TestSeriesRecordsUtilization checks the sampler's content: utilization
// per-mille columns stay in range, the soaker keeps the CPU saturated,
// netmem occupancy is visible, and latency quantiles are ordered.
func TestSeriesRecordsUtilization(t *testing.T) {
	tb := seriesRun()
	snap := tb.Series.Snapshot()
	if snap.IntervalNs != int64(100*units.Microsecond) {
		t.Fatalf("interval = %d", snap.IntervalNs)
	}
	if len(snap.Hosts) != 2 || snap.Hosts[0].Host != "A" || snap.Hosts[1].Host != "B" {
		t.Fatalf("hosts = %+v", len(snap.Hosts))
	}
	for _, hs := range snap.Hosts {
		col := map[string]int{}
		for i, c := range hs.Columns {
			col[c] = i
		}
		for _, want := range []string{"cpu.util_pm", "cpu.copy_pm", "cpu.intr_pm",
			"cab.netmem_pages", "cab.netmem_pages_peak",
			"tcp.snd_q_peak", "tcp.rcv_q_peak", "tcp.snd_wnd_peak"} {
			if _, ok := col[want]; !ok {
				t.Fatalf("host %s missing column %s (have %v)", hs.Host, want, hs.Columns)
			}
		}
		if len(hs.Samples) < 100 {
			t.Fatalf("host %s recorded only %d samples", hs.Host, len(hs.Samples))
		}
		var maxUtil, maxPages int64
		for _, row := range hs.Samples {
			u := row.V[col["cpu.util_pm"]]
			if u < 0 || u > 1000 {
				t.Fatalf("host %s utilization %d out of per-mille range", hs.Host, u)
			}
			if u > maxUtil {
				maxUtil = u
			}
			if p := row.V[col["cab.netmem_pages_peak"]]; p > maxPages {
				maxPages = p
			}
		}
		// The util soaker keeps the CPU pegged during the transfer.
		if maxUtil != 1000 {
			t.Errorf("host %s never saturated: max util %d‰", hs.Host, maxUtil)
		}
		if maxPages == 0 {
			t.Errorf("host %s shows no netmem page occupancy", hs.Host)
		}
	}
	if len(snap.LatencyQ) != 3 {
		t.Fatalf("latency quantiles = %+v", snap.LatencyQ)
	}
	if !(snap.LatencyQ[0].Ns <= snap.LatencyQ[1].Ns && snap.LatencyQ[1].Ns <= snap.LatencyQ[2].Ns) {
		t.Fatalf("quantiles not ordered: %+v", snap.LatencyQ)
	}
}

// TestSeriesDeterministic: same seed, byte-identical series exports.
func TestSeriesDeterministic(t *testing.T) {
	s1 := seriesRun().Series.Snapshot()
	s2 := seriesRun().Series.Snapshot()
	if !bytes.Equal(s1.JSON(), s2.JSON()) {
		t.Fatal("same-seed runs produced different series JSON")
	}
	if s1.CSV() != s2.CSV() {
		t.Fatal("same-seed runs produced different series CSV")
	}
}

// TestSeriesVirtualTimeNeutral: the sampler must not perturb the
// workload's virtual-time results even though it keeps an engine event
// pending.
func TestSeriesVirtualTimeNeutral(t *testing.T) {
	_, on := shortRun(3, core.Recorders{Series: 100 * units.Microsecond})
	_, off := shortRun(3, core.Recorders{})
	if on.Elapsed != off.Elapsed || on.Bytes != off.Bytes || on.Throughput != off.Throughput {
		t.Fatalf("series sampling changed the run: on=(%v %v) off=(%v %v)",
			on.Elapsed, on.Throughput, off.Elapsed, off.Throughput)
	}
}

// TestBreakdownJSONDeterministic pins the Figure 7–9 exports.
func TestBreakdownJSONDeterministic(t *testing.T) {
	sizes := []units.Size{16 * units.KB}
	a7, a8, a9 := RunBreakdowns(sizes)
	b7, b8, b9 := RunBreakdowns(sizes)
	if !bytes.Equal(a7.JSON(), b7.JSON()) || !bytes.Equal(a8.JSON(), b8.JSON()) ||
		!bytes.Equal(a9.JSON(), b9.JSON()) {
		t.Fatal("breakdown JSON not deterministic")
	}
	// Shares of one host sum to ~1 (every category is listed).
	p := a7.Series["Unmodified"][0]
	var sum float64
	for _, s := range p.Shares {
		sum += s.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("category shares sum to %f", sum)
	}
}
