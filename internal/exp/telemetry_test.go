package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
)

// shortRun runs the 4 MB single-copy transfer the recorder tests share, with
// whatever enable attaches (nil: nothing).
func shortRun(seed int64, enable func(*core.Testbed)) (*core.Testbed, ttcp.Result) {
	tb, a, b := pairTestbed(seed, core.HostConfig{Mach: cost.Alpha400(), Mode: socket.ModeSingleCopy}, enable)
	return tb, ttcp.Run(tb, a, b, ttcp.Params{
		Total: 4 * units.MB, RWSize: 64 * units.KB,
		WithUtil: true, WithBackground: true,
	})
}

// runInstrumented is shortRun with telemetry enabled, optionally injecting
// faults.
func runInstrumented(seed int64, rules ...fault.Rule) (*core.Testbed, ttcp.Result) {
	return shortRun(seed, func(tb *core.Testbed) {
		tb.EnableTelemetry()
		if len(rules) > 0 {
			inj := fault.New(tb.Eng, 99)
			for _, r := range rules {
				inj.Add(r)
			}
			tb.EnableFaults(inj)
		}
	})
}

// metric looks one value up in a snapshot.
func metric(t *testing.T, s obs.Snapshot, host, name string) int64 {
	t.Helper()
	for _, h := range s.Hosts {
		if h.Host != host {
			continue
		}
		for _, m := range h.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
	}
	t.Fatalf("metric %s/%s not in snapshot", host, name)
	return 0
}

// TestTelemetryDeterminism is the regression oracle of the telemetry layer:
// identical seeds must produce byte-identical metrics JSON and Chrome
// traces.
func TestTelemetryDeterminism(t *testing.T) {
	tb1, _ := runInstrumented(7)
	tb2, _ := runInstrumented(7)
	if !bytes.Equal(tb1.Tel.Snapshot().JSON(), tb2.Tel.Snapshot().JSON()) {
		t.Fatal("same-seed runs produced different metrics JSON")
	}
	if !bytes.Equal(tb1.Tel.Chrome(), tb2.Tel.Chrome()) {
		t.Fatal("same-seed runs produced different Chrome traces")
	}
}

// TestLossMovesCounters asserts the counters respond to injected loss:
// lossless runs retransmit nothing; lossy runs move the retransmit and drop
// counters.
func TestLossMovesCounters(t *testing.T) {
	tb, _ := runInstrumented(7)
	clean := tb.Tel.Snapshot()
	if n := metric(t, clean, "A", "tcp.retransmits"); n != 0 {
		t.Fatalf("lossless run retransmitted %d segments", n)
	}
	if n := metric(t, clean, "net", "hippi.frames_dropped"); n != 0 {
		t.Fatalf("lossless run dropped %d frames", n)
	}

	// Only drop bulk data frames so the handshake survives.
	tb2, res := runInstrumented(7, fault.Rule{
		Kind: fault.Drop, When: fault.Prob(0.02), MinLen: 16*units.KB + 1,
	})
	lossy := tb2.Tel.Snapshot()
	if res.Bytes != 4*units.MB {
		t.Fatalf("lossy transfer incomplete: %v", res.Bytes)
	}
	if n := metric(t, lossy, "net", "hippi.frames_dropped"); n == 0 {
		t.Fatal("loss injection dropped no frames")
	}
	if n := metric(t, lossy, "A", "tcp.retransmits"); n == 0 {
		t.Fatal("frame loss caused no retransmissions")
	}
}

// TestTelemetryVirtualTimeNeutral asserts observing the system does not
// change it: virtual-time results are identical with telemetry on and off.
func TestTelemetryVirtualTimeNeutral(t *testing.T) {
	_, on := shortRun(3, func(tb *core.Testbed) { tb.EnableTelemetry() })
	_, off := shortRun(3, nil)
	if on.Elapsed != off.Elapsed || on.Bytes != off.Bytes || on.Throughput != off.Throughput {
		t.Fatalf("telemetry changed the run: on=(%v %v) off=(%v %v)",
			on.Elapsed, on.Throughput, off.Elapsed, off.Throughput)
	}
}

// TestChromeTraceShape asserts the exported trace is valid Chrome
// trace-event JSON with complete spans across every data-path stage.
func TestChromeTraceShape(t *testing.T) {
	tb, _ := runInstrumented(7)
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  string  `json:"pid"`
			TID  string  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tb.Tel.Chrome(), &f); err != nil {
		t.Fatalf("chrome export not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("chrome export has no events")
	}
	stages := map[string]int{}
	flows := 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "X":
			stages[ev.TID]++
		case "s", "f":
			// Cross-host binding arrows emitted when a span changes hosts.
			flows++
		case "i":
			// Instant markers (zero-duration stages).
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if flows == 0 || flows%2 != 0 {
		t.Fatalf("cross-host flow events = %d, want a positive even count", flows)
	}
	for _, want := range []string{"socket", "packetize", "sdma", "wire", "mdma", "deliver"} {
		if stages[want] == 0 {
			t.Fatalf("no %q events in trace (stages: %v)", want, stages)
		}
	}
	// The span summary agrees with host-visible state: every data segment
	// of the transfer completed a span.
	st := tb.Tel.Trace().Stats()
	if st.Spans == 0 || st.Latency.Count != st.Spans {
		t.Fatalf("span stats inconsistent: %+v", st)
	}
}

// TestHostSnapshot exercises the core.Host accessor.
func TestHostSnapshot(t *testing.T) {
	tb, _ := runInstrumented(7)
	hm := tb.Hosts[0].Snapshot()
	if hm.Host != "A" || len(hm.Metrics) == 0 {
		t.Fatalf("host snapshot empty: %+v", hm.Host)
	}
	// Disabled telemetry: Snapshot stays usable and empty.
	tb2 := core.NewTestbed(1)
	h := tb2.AddHost(core.HostConfig{Name: "X", Addr: addrA, CABNode: 1})
	if hm := h.Snapshot(); hm.Host != "X" || len(hm.Metrics) != 0 {
		t.Fatalf("disabled snapshot = %+v", hm)
	}
	tb2.Eng.Run()
	tb2.Eng.KillAll()
}

// TestFigureJSONDeterministic pins the machine-readable figure export.
func TestFigureJSONDeterministic(t *testing.T) {
	sizes := []units.Size{16 * units.KB}
	f1 := Figure5(sizes)
	f2 := Figure5(sizes)
	if !bytes.Equal(f1.JSON(), f2.JSON()) {
		t.Fatal("figure JSON not deterministic")
	}
	var jf struct {
		Name   string `json:"name"`
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				RWSizeBytes    int64   `json:"rwsize_bytes"`
				ThroughputMbps float64 `json:"throughput_mbps"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(f1.JSON(), &jf); err != nil {
		t.Fatalf("figure JSON invalid: %v", err)
	}
	if len(jf.Series) != 3 || jf.Series[0].Name != "Unmodified" {
		t.Fatalf("series = %+v", jf.Series)
	}
	if jf.Series[1].Points[0].ThroughputMbps <= 0 {
		t.Fatal("modified series has no throughput")
	}
}
