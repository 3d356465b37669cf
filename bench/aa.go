package main

import (
	"context"
	"fmt"
	"io"
	"math"
)

// aaRow is one workload × metric comparison of two runs of the same code.
type aaRow struct {
	workload, metric string
	a, b             float64
	// gap is how much worse the worse side reads, as a share of the
	// better one; limit is the most the metric allows.
	gap, limit float64
	pass       bool
}

// compareAA holds two suites of the same code against the benchmark's own
// rules: an end-to-end metric may differ by at most its bound, an exact
// per-layer metric not at all. A benchmark whose noise exceeds its bounds
// could not tell a regression from a rerun.
func compareAA(a, b suite) []aaRow {
	var rows []aaRow
	for _, w := range workloads {
		for _, m := range endToEnd {
			rows = append(rows, aaCompare(w.name, m.Name, a.EndToEnd[w.name][m.Name].Value,
				b.EndToEnd[w.name][m.Name].Value, m.Bound))
		}
		for _, m := range perLayer {
			if m.exact {
				rows = append(rows, aaCompare(w.name, m.Name, a.PerLayer[w.name][m.Name].Value,
					b.PerLayer[w.name][m.Name].Value, 0))
			}
		}
	}
	return rows
}

func aaCompare(workload, metric string, a, b, limit float64) aaRow {
	r := aaRow{workload: workload, metric: metric, a: a, b: b, limit: limit}
	if lo := math.Min(math.Abs(a), math.Abs(b)); lo > 0 {
		r.gap = math.Abs(a-b) / lo
	} else if a != b {
		r.gap = math.Inf(1)
	}
	r.pass = r.gap <= limit
	return r
}

// runAA runs the whole set twice and prints the comparison.
func runAA(ctx context.Context, cfg config, stdout io.Writer) error {
	a, err := runSuite(ctx, cfg, stdout)
	if err != nil {
		return err
	}
	b, err := runSuite(ctx, cfg, stdout)
	if err != nil {
		return err
	}
	fails := 0
	fmt.Fprintf(stdout, "\nA/A: two runs of the same code\n%-15s %-26s %14s %14s %9s %7s\n",
		"workload", "metric", "first", "second", "gap", "bound")
	for _, r := range compareAA(a, b) {
		verdict := "PASS"
		if !r.pass {
			verdict = "FAIL"
			fails++
		}
		if r.limit == 0 && r.pass {
			continue // exact metrics are listed only when they differ
		}
		fmt.Fprintf(stdout, "%-15s %-26s %14.6g %14.6g %8.2f%% %6.0f%% %s\n",
			r.workload, r.metric, r.a, r.b, r.gap*100, r.limit*100, verdict)
	}
	if fails > 0 {
		return fmt.Errorf("A/A: %d comparisons outside their bounds", fails)
	}
	fmt.Fprintln(stdout, "A/A: every end-to-end metric within its bound, every exact per-layer metric identical")
	return nil
}
