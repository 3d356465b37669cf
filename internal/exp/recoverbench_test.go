package exp

import (
	"strings"
	"testing"
)

// TestRecoverBenchDeterminism runs the recovery matrix twice and requires
// the deterministic fields (injection schedule, first-goodput instants,
// flow fates, byte/reset/drop counts) to be byte-identical — the property
// the gate's exact diff of BENCH_recover.json rests on.
func TestRecoverBenchDeterminism(t *testing.T) {
	a := sameSeedTwice(t, RunRecoverBench)
	for _, c := range a.Cells {
		// Every flow must have a committed fate: byte-exact completion or
		// a documented error on the side that failed.
		for i, f := range c.FlowFates {
			if !f.Complete && f.SndErr == "" && f.RcvErr == "" {
				t.Fatalf("cell %s flow %d: incomplete with no error", c.Name, i)
			}
		}
		switch {
		case strings.HasPrefix(c.Name, "partition-"):
			if c.PartitionDrops == 0 {
				t.Fatalf("cell %s: partition never ate a frame", c.Name)
			}
			if c.HealAtNs > c.FaultAtNs && c.FirstGoodputNs > 0 && c.FirstGoodputNs < c.HealAtNs {
				t.Fatalf("cell %s: goodput at %dns inside the partition window ending %dns",
					c.Name, c.FirstGoodputNs, c.HealAtNs)
			}
		case strings.HasPrefix(c.Name, "cabreset-"):
			if c.Resets == 0 {
				t.Fatalf("cell %s: no firmware reset observed", c.Name)
			}
		}
	}
}
