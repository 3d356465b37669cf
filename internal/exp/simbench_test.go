package exp

import "testing"

// TestSimBenchDeterminism runs the quick simbench matrix (fig5 + 256-flow
// load) twice and requires the deterministic sections (event counts by
// kind, queue high-waters, kernel charges, virtual time) to be
// byte-identical — the property the gate's exact diff of BENCH_sim.json
// rests on. The soak matrix and the 1024-flow run get their second
// same-seed pass from the gate itself (`-check simbench` exact-diffs a
// fresh full run against the committed one) and have determinism tests of
// their own in internal/fault/soak and internal/load.
func TestSimBenchDeterminism(t *testing.T) {
	a := sameSeedTwice(t, func() (SimBench, error) { return RunSimBench(true) })
	for _, w := range a.Workloads {
		if w.Det.EventsTotal == 0 {
			t.Fatalf("workload %s observed no events", w.Name)
		}
		if w.VirtualNs == 0 {
			t.Fatalf("workload %s recorded no virtual time", w.Name)
		}
	}
}
