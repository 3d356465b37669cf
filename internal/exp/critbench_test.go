package exp

import "testing"

// TestCritBenchDeterminism runs the critical-path workload matrix twice and
// requires the deterministic fields (transfers, graph sizes, per-cause
// nanoseconds) to be byte-identical — the property the gate's exact diff
// of BENCH_critpath.json rests on. The quick matrix (three sizes plus the
// incast) is always enough to pin determinism; the committed baseline uses
// the full grid.
func TestCritBenchDeterminism(t *testing.T) {
	a := sameSeedTwice(t, func() (CritBench, error) { return RunCritPath(true) })
	for _, c := range a.Cells {
		if c.Transfers == 0 || c.Events == 0 {
			t.Fatalf("cell %s recorded no transfers/events", c.Name)
		}
		if c.TotalNs <= 0 {
			t.Fatalf("cell %s attributed no latency", c.Name)
		}
		if c.Mode == "single_copy" && (c.SenderCopyNs != 0 || c.SenderCsumNs != 0) {
			t.Fatalf("cell %s: single-copy sender shows copy=%dns csum=%dns on the critical path",
				c.Name, c.SenderCopyNs, c.SenderCsumNs)
		}
	}
}
