package exp

import (
	"reflect"
	"testing"

	"repro/internal/load"
	"repro/internal/obs/netobs"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// TestFabricVerdictPair machine-checks the congestion-control comparison
// the fabric bench is built around: the same 64-flow cross-fabric incast
// is RTO-bound under Reno (the capped trunk tail-drops until flows sit in
// retransmission timeout) and healthy under DCTCP (fabric CE marks hold
// the queue under the cap), with byte-exact delivery and a clean
// single-copy audit in both worlds.
func TestFabricVerdictPair(t *testing.T) {
	reno, err := RunFabricScenario(FabricIncast(""))
	if err != nil {
		t.Fatal(err)
	}
	dctcp, err := RunFabricScenario(FabricIncast(tcpip.CCDctcp))
	if err != nil {
		t.Fatal(err)
	}

	if n := reno.Verdicts[netobs.VerdictRTOBound]; n < 2 {
		t.Errorf("reno incast: want >=2 RTO-bound flows, got %d (verdicts %v)", n, reno.Verdicts)
	}
	if reno.TrunkDrops == 0 {
		t.Errorf("reno incast: want trunk tail drops at the capped queue, got 0")
	}
	if n := dctcp.Verdicts[netobs.VerdictRTOBound]; n != 0 {
		t.Errorf("dctcp incast: want 0 RTO-bound flows, got %d (verdicts %v)", n, dctcp.Verdicts)
	}
	total := 0
	for _, n := range dctcp.Verdicts {
		total += n
	}
	if h := dctcp.Verdicts[netobs.VerdictHealthy]; h != total {
		t.Errorf("dctcp incast: want all %d flows healthy, got %d (verdicts %v)", total, h, dctcp.Verdicts)
	}
	if dctcp.ECNMarked == 0 {
		t.Errorf("dctcp incast: fabric marked no frames")
	}
	if reno.ECNMarked != 0 {
		t.Errorf("reno incast: %d frames marked, but reno traffic is not ECT", reno.ECNMarked)
	}
	if dctcp.Jain <= reno.Jain {
		t.Errorf("fairness: dctcp jain %v <= reno jain %v", dctcp.Jain, reno.Jain)
	}
	if reno.Audit != "ok" || dctcp.Audit != "ok" {
		t.Errorf("single-copy audit: reno=%q dctcp=%q, want ok/ok", reno.Audit, dctcp.Audit)
	}
	if reno.OrderDigest == dctcp.OrderDigest {
		t.Errorf("reno and dctcp produced the identical frame timeline %s — congestion control changed nothing", reno.OrderDigest)
	}
}

// TestFabricECMPDeterminism pins the seeded ECMP hash: the same seed
// reproduces the identical delivery timeline and per-trunk byte shares,
// while a different seed redraws the hash collisions and shifts bytes
// between the equal-cost spine uplinks.
func TestFabricECMPDeterminism(t *testing.T) {
	a1, err := RunFabricScenario(FabricHotspot(3))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := RunFabricScenario(FabricHotspot(3))
	if err != nil {
		t.Fatal(err)
	}
	if a1.OrderDigest != a2.OrderDigest {
		t.Errorf("same seed, different delivery order: %s vs %s", a1.OrderDigest, a2.OrderDigest)
	}
	if !reflect.DeepEqual(a1.Trunks, a2.Trunks) {
		t.Errorf("same seed, different trunk shares:\n%+v\n%+v", a1.Trunks, a2.Trunks)
	}

	b, err := RunFabricScenario(FabricHotspot(9))
	if err != nil {
		t.Fatal(err)
	}
	if b.OrderDigest == a1.OrderDigest {
		t.Errorf("different seeds produced the identical delivery order %s", b.OrderDigest)
	}
	// The uplink byte split between the two spines must move with the
	// seed: collect each seed's per-trunk uplink bytes and compare.
	shares := func(fr FabricRun) map[string]int64 {
		m := map[string]int64{}
		for _, ts := range fr.Trunks {
			m[ts.Name] = int64(ts.AB) + int64(ts.BA)
		}
		return m
	}
	if reflect.DeepEqual(shares(a1), shares(b)) {
		t.Errorf("different seeds, identical uplink byte shares: %v", shares(a1))
	}
}

// TestFabricPartitionHeal runs the spine-uplink partition/heal scenario:
// the flows hashed through the dead link must recover (RTO retries) and
// every byte still arrives exactly once — RunFabricScenario fails the
// run outright on any delivery error.
func TestFabricPartitionHeal(t *testing.T) {
	fr, err := RunFabricScenario(fabricPartition())
	if err != nil {
		t.Fatal(err)
	}
	if fr.RtoFires == 0 {
		t.Errorf("partition run: no RTO fires — the dead uplink cost nothing?")
	}
	if fr.TotalBytes == 0 {
		t.Errorf("partition run delivered no bytes")
	}
	// The partitioned trunk must actually carry flows (ECMP hashed some
	// of the incast its way), or the outage proved nothing.
	var partitioned, other int64
	for _, ts := range fr.Trunks {
		if ts.Name == "leaf0-spine1" {
			partitioned = int64(ts.AB) + int64(ts.BA)
		} else {
			other += int64(ts.AB) + int64(ts.BA)
		}
	}
	if partitioned == 0 || other == 0 {
		t.Errorf("trunk shares: partitioned link carried %d bytes, rest %d — want both nonzero", partitioned, other)
	}
}

// TestNetObsReadsWireDrops holds netobs's three drop counts, in the dump
// and in the postmortem, to the network's own, on two runs that drop: the
// partition/heal scenario, whose dead uplink drops frames by injection,
// and the Reno incast, whose capped trunk tail-drops. netobs reads the
// counts and counts none itself.
func TestNetObsReadsWireDrops(t *testing.T) {
	incast := FabricIncast("")
	incast.Duration = 200 * units.Millisecond
	var seen [3]int64
	for _, s := range []load.Scenario{fabricPartition(), incast} {
		rep, err := runLoad(s)
		if err != nil {
			t.Fatal(err)
		}
		net := rep.Testbed.Net
		want := [3]int64{int64(net.DroppedInj), int64(net.DroppedUnattached), int64(net.DroppedFull)}
		for i, n := range want {
			seen[i] += n
		}
		wires := 0
		for _, w := range rep.Testbed.NetObs.Snapshot().Wires {
			if got := [3]int64{w.DropInj, w.DropUnattached, w.DropFull}; w.Label == "hippi" {
				wires++
				if got != want {
					t.Errorf("%s: dump's drops = %v, want the network's %v", s.Name, got, want)
				}
			}
		}
		for _, w := range rep.NetObs.Wires {
			if got := [3]int64{w.DropInj, w.DropUnattached, w.DropFull}; w.Label == "hippi" {
				wires++
				if got != want {
					t.Errorf("%s: postmortem's drops = %v, want the network's %v", s.Name, got, want)
				}
			}
		}
		if wires != 2 {
			t.Errorf("%s: %d hippi wires in the dump and the postmortem, want one in each", s.Name, wires)
		}
	}
	if seen[0] == 0 || seen[2] == 0 {
		t.Fatalf("network drops inj/unattached/full = %v: the runs no longer drop by injection and at a full queue", seen)
	}
}
