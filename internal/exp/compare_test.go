package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gate runs the gate's comparison over two literal files.
func gate(t *testing.T, base, fresh string) Diff {
	t.Helper()
	d, err := compareBytes("f", []byte(base), []byte(fresh))
	if err != nil {
		t.Fatalf("bad test JSON: %v", err)
	}
	return d
}

const baseFig = `{
  "name": "Figure 7",
  "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.27, "efficiency_mbps": 462.8},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]
}`

func TestCompareIdentical(t *testing.T) {
	if d := gate(t, baseFig, baseFig); len(d.Violations) != 0 {
		t.Fatalf("identical files produced violations: %v", d.Violations)
	}
}

// TestCompareFailsOnSmallDrift: every numeric leaf is pinned exactly, so
// drift of under 1 % — inside the ±5 % band the gate once forgave — fails
// once per leaf.
func TestCompareFailsOnSmallDrift(t *testing.T) {
	fresh := `{
  "name": "Figure 7",
  "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.272, "efficiency_mbps": 464.0},
      {"rwsize_bytes": 262144, "utilization": 0.268, "efficiency_mbps": 484.9}
    ]
  }]
}`
	d := gate(t, baseFig, fresh)
	if len(d.Violations) != 4 {
		t.Fatalf("want 4 violations, one per drifted leaf, got %v", d.Violations)
	}
	if want := "f.series[0].points[0].efficiency_mbps: 464 != baseline 462.8"; d.Violations[0] != want {
		t.Errorf("first violation %q, want %q", d.Violations[0], want)
	}
}

// TestCompareDetectsRegression is the gate's negative test: a 20%
// utilization regression (CPU cost up, efficiency down) must fail.
func TestCompareDetectsRegression(t *testing.T) {
	fresh := `{
  "name": "Figure 7",
  "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.324, "efficiency_mbps": 385.7},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]
}`
	if d := gate(t, baseFig, fresh); len(d.Violations) != 2 {
		t.Fatalf("want 2 violations (utilization + efficiency), got %v", d.Violations)
	}
}

func TestCompareStructuralMismatch(t *testing.T) {
	missing := `{"name": "Figure 7", "series": []}`
	if d := gate(t, baseFig, missing); len(d.Violations) == 0 {
		t.Fatal("dropped series not flagged")
	}
	extra := `{"name": "Figure 7", "extra": 1, "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.27, "efficiency_mbps": 462.8},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]}`
	if d := gate(t, baseFig, extra); len(d.Violations) == 0 {
		t.Fatal("unexpected new key not flagged")
	}
	renamed := `{"name": "Figure 8", "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.27, "efficiency_mbps": 462.8},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]}`
	if d := gate(t, baseFig, renamed); len(d.Violations) == 0 {
		t.Fatal("string change not flagged")
	}
}

const baseSim = `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 100, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1000000, "events_per_sec": 100000, "allocs_per_event": 3.5}
  }]
}`

// TestCompareAdvisoryClass: there is no advisory class any more. Drift in
// wall-clock fields under a key named "advisory" fails like any other
// leaf, which is why no committed baseline carries host time.
func TestCompareAdvisoryClass(t *testing.T) {
	fresh := `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 100, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1500000, "events_per_sec": 66666, "allocs_per_event": 4.1}
  }]
}`
	if d := gate(t, baseSim, fresh); len(d.Violations) != 3 {
		t.Fatalf("want 3 violations, one per drifted wall-clock leaf, got %v", d.Violations)
	}
}

// TestCompareAdvisoryStructural: a field disappearing is a violation
// under any key.
func TestCompareAdvisoryStructural(t *testing.T) {
	gone := `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 100, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1000000, "events_per_sec": 100000}
  }]
}`
	d := gate(t, baseSim, gone)
	if want := "f.workloads[0].advisory.allocs_per_event: missing from fresh output"; len(d.Violations) != 1 || d.Violations[0] != want {
		t.Fatalf("violations %q, want [%q]", d.Violations, want)
	}
}

// TestSummaryFormat pins the one-line per-file verdict the gate prints.
func TestSummaryFormat(t *testing.T) {
	base := `{"a": 1, "s": "x"}`
	if got, want := gate(t, base, base).Summary("BENCH_fig5.json"), "ok   BENCH_fig5.json"; got != want {
		t.Errorf("clean summary:\n got %q\nwant %q", got, want)
	}
	d := gate(t, base, `{"a": 2, "s": "y"}`)
	if want := []string{"f.a: 2 != baseline 1", "f.s: y != baseline x"}; strings.Join(d.Violations, "\n") != strings.Join(want, "\n") {
		t.Errorf("violations %q, want %q", d.Violations, want)
	}
	if got, want := d.Summary("BENCH_touches.json"), "FAIL BENCH_touches.json"; got != want {
		t.Errorf("failing summary:\n got %q\nwant %q", got, want)
	}
}

// TestGateFailsOnAnyByte runs the gate's comparison over the committed
// Figure 5 baseline: clean against itself, one violation naming the leaf
// for a +3 % throughput edit (inside the old ±5 % band), and one
// formatting violation for a number rewritten with a trailing zero, whose
// value does not change.
func TestGateFailsOnAnyByte(t *testing.T) {
	const file = "BENCH_fig5.json"
	data, err := os.ReadFile(filepath.Join("../..", file))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := compareBytes(file, data, data); err != nil || len(d.Violations) != 0 {
		t.Fatalf("%s against itself: %v %v", file, d.Violations, err)
	}
	for _, tc := range []struct {
		name, old, new, want string
	}{
		{"+3% throughput", `"throughput_mbps": 13.377959810383109,`, `"throughput_mbps": 13.78,`,
			file + ".series[0].points[1].throughput_mbps: 13.377959810383109 != baseline 13.78"},
		{"trailing zero", `"throughput_mbps": 29.4676669945193,`, `"throughput_mbps": 29.46766699451930,`,
			file + ": same values, different bytes (a formatting change)"},
	} {
		edited := bytes.Replace(data, []byte(tc.old), []byte(tc.new), 1)
		if bytes.Equal(edited, data) {
			t.Fatalf("%s: edit target %s not in %s", tc.name, tc.old, file)
		}
		d, err := compareBytes(file, edited, data)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Violations) != 1 || d.Violations[0] != tc.want {
			t.Errorf("%s: violations %q, want [%q]", tc.name, d.Violations, tc.want)
		}
	}
}
