package exp

import (
	"encoding/json"
	"testing"
)

func parse(t *testing.T, s string) any {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(s), &v); err != nil {
		t.Fatalf("bad test JSON: %v", err)
	}
	return v
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
	if d := Compare("f", parse(t, baseFig), parse(t, baseFig), defaultRel, defaultAbs); len(d.Violations) != 0 {
		t.Fatalf("identical trees produced violations: %v", d.Violations)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
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
	if d := Compare("f", parse(t, baseFig), parse(t, fresh), defaultRel, defaultAbs); len(d.Violations) != 0 {
		t.Fatalf("in-tolerance drift flagged: %v", d.Violations)
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
	d := Compare("f", parse(t, baseFig), parse(t, fresh), defaultRel, defaultAbs)
	if len(d.Violations) != 2 {
		t.Fatalf("want 2 violations (utilization + efficiency), got %v", d.Violations)
	}
}

func TestCompareStructuralMismatch(t *testing.T) {
	missing := `{"name": "Figure 7", "series": []}`
	if d := Compare("f", parse(t, baseFig), parse(t, missing), defaultRel, defaultAbs); len(d.Violations) == 0 {
		t.Fatal("dropped series not flagged")
	}
	extra := `{"name": "Figure 7", "extra": 1, "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.27, "efficiency_mbps": 462.8},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]}`
	if d := Compare("f", parse(t, baseFig), parse(t, extra), defaultRel, defaultAbs); len(d.Violations) == 0 {
		t.Fatal("unexpected new key not flagged")
	}
	renamed := `{"name": "Figure 8", "series": [{
    "name": "Modified",
    "points": [
      {"rwsize_bytes": 65536, "utilization": 0.27, "efficiency_mbps": 462.8},
      {"rwsize_bytes": 262144, "utilization": 0.27, "efficiency_mbps": 485.2}
    ]
  }]}`
	if d := Compare("f", parse(t, baseFig), parse(t, renamed), defaultRel, defaultAbs); len(d.Violations) == 0 {
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

// TestCompareAdvisoryClass: drift in advisory wall-clock fields is
// reported but never a violation, even at zero tolerance (the simbench
// exact-diff mode); drift in the deterministic section still fails.
func TestCompareAdvisoryClass(t *testing.T) {
	fresh := `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 100, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1500000, "events_per_sec": 66666, "allocs_per_event": 4.1}
  }]
}`
	d := Compare("f", parse(t, baseSim), parse(t, fresh), 0, 0)
	if len(d.Violations) != 0 {
		t.Fatalf("advisory drift became violations: %v", d.Violations)
	}
	if len(d.Advisories) != 3 {
		t.Fatalf("want 3 advisory drifts, got %v", d.Advisories)
	}

	det := `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 101, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1000000, "events_per_sec": 100000, "allocs_per_event": 3.5}
  }]
}`
	d = Compare("f", parse(t, baseSim), parse(t, det), 0, 0)
	if len(d.Violations) != 1 {
		t.Fatalf("deterministic drift not flagged exactly once: %v", d.Violations)
	}
}

// TestCompareAdvisoryStructural: an advisory field disappearing is a real
// violation — the class exempts values, not presence.
func TestCompareAdvisoryStructural(t *testing.T) {
	gone := `{
  "workloads": [{
    "name": "fig5-xfer",
    "deterministic": {"events_total": 100, "queue_depth_hw": 12},
    "advisory": {"wall_ns": 1000000, "events_per_sec": 100000}
  }]
}`
	d := Compare("f", parse(t, baseSim), parse(t, gone), 0, 0)
	if len(d.Violations) == 0 {
		t.Fatal("missing advisory field not flagged")
	}
}

// TestCoverageCounts pins how compared leaves are classified: numeric
// leaves are tolerant (or exact under zero tolerance), strings and
// booleans are always exact, and anything under an advisory key counts
// as advisory.
func TestCoverageCounts(t *testing.T) {
	base := parse(t, `{
		"name": "fig5",
		"ok": true,
		"mbps": 700.5,
		"cells": [1, 2, 3],
		"advisory": {"wall_ns": 123, "note": "x"},
		"advisory_allocs": 7
	}`)

	d := Compare("f", base, base, defaultRel, defaultAbs)
	if len(d.Violations) != 0 || len(d.Advisories) != 0 {
		t.Fatalf("self-compare produced diffs: %+v", d)
	}
	// name + ok exact; mbps + 3 cells tolerant; wall_ns + note + allocs
	// advisory.
	if d.Exact != 2 || d.Tolerant != 4 || d.Advisory != 3 {
		t.Fatalf("coverage = %d exact / %d tolerant / %d advisory, want 2/4/3",
			d.Exact, d.Tolerant, d.Advisory)
	}

	// Zero tolerance (the exact-file mode) reclassifies the non-advisory
	// numeric leaves as exact.
	d = Compare("f", base, base, 0, 0)
	if d.Exact != 6 || d.Tolerant != 0 || d.Advisory != 3 {
		t.Fatalf("zero-tolerance coverage = %d/%d/%d, want 6/0/3",
			d.Exact, d.Tolerant, d.Advisory)
	}
}

// TestSummaryFormat pins the one-line per-file verdict the gate prints.
func TestSummaryFormat(t *testing.T) {
	base := parse(t, `{"a": 1, "s": "x", "advisory": {"w": 10}}`)

	d := Compare("f", base, base, defaultRel, defaultAbs)
	if got, want := d.Summary("BENCH_fig5.json"),
		"ok   BENCH_fig5.json (1 exact / 1 tolerant / 1 advisory fields compared)"; got != want {
		t.Errorf("clean summary:\n got %q\nwant %q", got, want)
	}

	// Advisory drift: tallied on the line, verdict stays ok.
	fresh := parse(t, `{"a": 1, "s": "x", "advisory": {"w": 99}}`)
	d = Compare("f", base, fresh, defaultRel, defaultAbs)
	if len(d.Violations) != 0 || len(d.Advisories) != 1 {
		t.Fatalf("unexpected diff classes: %+v", d)
	}
	if got, want := d.Summary("BENCH_sim.json"),
		"ok   BENCH_sim.json (1 exact / 1 tolerant / 1 advisory fields compared; 1 advisory drifts)"; got != want {
		t.Errorf("advisory summary:\n got %q\nwant %q", got, want)
	}

	// A real violation flips the verdict.
	fresh = parse(t, `{"a": 2, "s": "y", "advisory": {"w": 10}}`)
	d = Compare("f", base, fresh, defaultRel, defaultAbs)
	if len(d.Violations) != 2 {
		t.Fatalf("want 2 violations, got %+v", d.Violations)
	}
	if got, want := d.Summary("BENCH_touches.json"),
		"FAIL BENCH_touches.json (1 exact / 1 tolerant / 1 advisory fields compared; 2 violations)"; got != want {
		t.Errorf("failing summary:\n got %q\nwant %q", got, want)
	}
}
