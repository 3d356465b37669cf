package exp

import (
	"fmt"
	"strings"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/hippi"
	"repro/internal/load"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// FabricBench is the multi-switch fabric baseline (BENCH_fabric.json):
// four workload families over leaf/spine topologies assembled by
// internal/fabric, each a deterministic function of its seeded scenario,
// so the gate exact-diffs the file.
//
//   - The incast pair is the congestion-control comparison: 64 flows from
//     8 clients converge through one spine→leaf trunk onto 8 servers in
//     one rack. Under Reno the capped trunk queue tail-drops until flows
//     go RTO-bound; under DCTCP the fabric's CE marks hold the queue
//     under the cap and every flow stays healthy (the netobs postmortem
//     verdicts are the machine-checked evidence).
//   - The mice pair runs an elephant/mice request/response mix over the
//     same congested fabric: the mice's p99 latency pays for the queue
//     depth the elephants choose, so DCTCP's shallow queues show up as a
//     latency win at equal fabric load.
//   - The hotspot pair is the ECMP evidence: the same 100-host incast
//     under two hash seeds places flows on different equal-cost uplinks,
//     so the per-trunk byte shares differ while either seed alone is
//     perfectly reproducible.
//   - The partition run kills one spine uplink mid-transfer and heals it:
//     only the flows ECMP hashed that links' way stall and recover.
type FabricBench struct {
	IncastReno  FabricRun `json:"incast_reno"`
	IncastDctcp FabricRun `json:"incast_dctcp"`
	MiceReno    FabricRun `json:"mice_reno"`
	MiceDctcp   FabricRun `json:"mice_dctcp"`
	HotspotA    FabricRun `json:"hotspot_seed3"`
	HotspotB    FabricRun `json:"hotspot_seed9"`
	Partition   FabricRun `json:"partition_heal"`
}

// FabricRun is one scenario's summary: goodput/fairness/latency on top,
// the fabric counters (marks, tail drops, per-trunk byte shares), the
// retransmission totals, and the postmortem verdict census.
type FabricRun struct {
	Name       string  `json:"name"`
	Topology   string  `json:"topology"`
	CC         string  `json:"cc"`
	TotalBytes int64   `json:"total_bytes"`
	Jain       float64 `json:"jain"`
	LatP50Us   float64 `json:"lat_p50_us,omitempty"`
	LatP99Us   float64 `json:"lat_p99_us,omitempty"`

	ECNMarked  int   `json:"ecn_marked"`
	TrunkDrops int   `json:"trunk_drops"`
	RtoFires   int64 `json:"rto_fires"`
	FastRtx    int64 `json:"fast_rtx"`

	// Verdicts is the netobs postmortem census (verdict → flow count);
	// empty when the scenario ran without the observatory.
	Verdicts map[string]int `json:"verdicts,omitempty"`

	OrderDigest string            `json:"order_digest"`
	Audit       string            `json:"audit,omitempty"`
	Trunks      []hippi.TrunkStat `json:"trunks"`
}

// fabricCAB is the per-host adaptor every fabric scenario uses: a 1 MByte
// network memory.
func fabricCAB() *cab.Config { return cabMem(1024 * units.KB) }

// cabMem is the paper's adaptor (cab.DefaultConfig) with size bytes of
// network memory.
func cabMem(size units.Size) *cab.Config {
	c := cab.DefaultConfig()
	c.MemSize = size
	return &c
}

// fabricMTU keeps fabric segments near the adaptor's 8 KByte page while
// staying off the exact page size: at 8192-byte segments every 16 KByte
// application write splits into two identical frames and the incast's 64
// flows phase-lock (synchronized drop rounds); the 64-byte offset
// desynchronizes the packetization.
const fabricMTU = 8*units.KB + 64

// FabricIncast is the 64-flow cross-fabric incast: 8 clients spread over
// three edge switches, 8 servers racked behind leaf0, every flow crossing
// the one spine→leaf0 trunk (leafspine:4x1 — four leaves, one spine).
// The trunk's 256 KByte queue cap is the congestion-control fulcrum:
// aggregate window demand (64 flows × 128 KByte) overruns it, so Reno
// tail-drops into RTO-bound flows, while DCTCP's 32 KByte marking
// threshold holds the standing queue far under the cap. Exported so the
// CLI and the machine-check tests run the identical scenario.
func FabricIncast(cc string) load.Scenario {
	s := load.Scenario{
		Name:         "fabric-incast",
		Seed:         7,
		Clients:      8,
		Servers:      8,
		Flows:        64,
		Mode:         socket.ModeSingleCopy,
		Topology:     "leafspine:4x1",
		CC:           cc,
		QueueCap:     256 * units.KB,
		ECNThreshold: 32 * units.KB,
		Bulk:         true,
		Duration:     600 * units.Millisecond,
		Warmup:       50 * units.Millisecond,
		BulkWrite:    16 * units.KB,
		Window:       128 * units.KB,
		MTU:          fabricMTU,
		CABConfig:    fabricCAB(),
		Recorders:    core.Recorders{NetObs: true, Ledger: true},
	}
	if cc != "" && cc != tcpip.CCReno {
		s.Name = "fabric-incast-" + cc
	}
	return s
}

// fabricMice is the elephant/mice mix over the same congested fabric:
// closed-loop request/response flows where one in eight exchanges pulls a
// 512 KByte elephant response and the rest are 8 KByte mice. The
// elephants keep the capped trunk queue busy; the mice p99 latency is the
// measurement.
func fabricMice(cc string) load.Scenario {
	s := load.Scenario{
		Name:         "fabric-mice",
		Seed:         11,
		Clients:      8,
		Servers:      8,
		Flows:        48,
		Mode:         socket.ModeSingleCopy,
		Topology:     "leafspine:4x1",
		CC:           cc,
		QueueCap:     256 * units.KB,
		ECNThreshold: 32 * units.KB,
		Requests:     24,
		Mix: []load.SizeClass{
			{Frac: 0.875, Req: 2 * units.KB, Resp: 8 * units.KB},
			{Frac: 0.125, Req: 4 * units.KB, Resp: 512 * units.KB},
		},
		Window:    128 * units.KB,
		MTU:       fabricMTU,
		CABConfig: fabricCAB(),
		Recorders: core.Recorders{NetObs: true},
	}
	if cc != "" && cc != tcpip.CCReno {
		s.Name = "fabric-mice-" + cc
	}
	return s
}

// FabricHotspot is the ECMP hash-collision workload: a 100-host incast
// (92 clients, 8 servers in one rack) over leafspine:4x2, where each
// flow's uplink is the seeded ECMP hash's choice between two spines. Hash
// collisions make the two spine trunks' byte shares unequal; a different
// seed redraws the collisions. Exported for the determinism tests.
func FabricHotspot(seed int64) load.Scenario {
	return load.Scenario{
		Name:      fmt.Sprintf("fabric-hotspot-%d", seed),
		Seed:      seed,
		Clients:   92,
		Servers:   8,
		Flows:     92,
		Mode:      socket.ModeSingleCopy,
		Topology:  "leafspine:4x2",
		Bulk:      true,
		Duration:  150 * units.Millisecond,
		Warmup:    25 * units.Millisecond,
		BulkWrite: 16 * units.KB,
		Window:    64 * units.KB,
		MTU:       fabricMTU,
		CABConfig: fabricCAB(),
	}
}

// fabricPartition kills the leaf0→spine1 uplink for 120 ms mid-transfer
// while bulk elephants persist, then heals it: only the flows ECMP hashed
// through spine1 stall (RTO retries against the dead link) and all bytes
// still arrive exactly once after recovery.
func fabricPartition() load.Scenario {
	return load.Scenario{
		Name:         "fabric-partition",
		Seed:         13,
		Clients:      12,
		Servers:      4,
		Flows:        48,
		Mode:         socket.ModeSingleCopy,
		Topology:     "leafspine:4x2",
		CC:           tcpip.CCDctcp,
		QueueCap:     256 * units.KB,
		ECNThreshold: 32 * units.KB,
		Bulk:         true,
		Duration:     500 * units.Millisecond,
		Warmup:       50 * units.Millisecond,
		BulkWrite:    16 * units.KB,
		Window:       128 * units.KB,
		MTU:          fabricMTU,
		CABConfig:    fabricCAB(),
		Recorders:    core.Recorders{NetObs: true},
		FaultPlan:    "partition:at=150ms,dur=120ms,link=leaf0-spine1",
	}
}

// RunFabricScenario executes one fabric scenario and folds its report
// into the bench row (shared by the bench generator and the tests).
func RunFabricScenario(s load.Scenario) (FabricRun, error) {
	rep, err := runLoad(s)
	if err != nil {
		return FabricRun{}, err
	}
	fr := FabricRun{
		Name:        rep.Name,
		Topology:    rep.Topology,
		CC:          rep.CC,
		TotalBytes:  rep.TotalBytes,
		Jain:        rep.Jain,
		LatP50Us:    rep.LatP50Us,
		LatP99Us:    rep.LatP99Us,
		ECNMarked:   rep.ECNMarked,
		TrunkDrops:  rep.TrunkDrops,
		OrderDigest: rep.OrderDigest,
		Audit:       rep.Audit,
		Trunks:      rep.Trunks,
	}
	if rep.NetObs != nil {
		fr.Verdicts = map[string]int{}
		for i := range rep.NetObs.Flows {
			f := &rep.NetObs.Flows[i]
			fr.Verdicts[f.Verdict]++
			fr.RtoFires += f.RtoFires
			fr.FastRtx += f.FastRtx
		}
	}
	return fr, nil
}

// RunFabric executes the full fabric baseline.
func RunFabric() (FabricBench, error) {
	var b FabricBench
	for _, step := range []struct {
		dst *FabricRun
		s   load.Scenario
	}{
		{&b.IncastReno, FabricIncast("")},
		{&b.IncastDctcp, FabricIncast(tcpip.CCDctcp)},
		{&b.MiceReno, fabricMice("")},
		{&b.MiceDctcp, fabricMice(tcpip.CCDctcp)},
		{&b.HotspotA, FabricHotspot(3)},
		{&b.HotspotB, FabricHotspot(9)},
		{&b.Partition, fabricPartition()},
	} {
		fr, err := RunFabricScenario(step.s)
		if err != nil {
			return b, err
		}
		*step.dst = fr
	}
	return b, nil
}

// Format renders a human summary.
func (b FabricBench) Format() string {
	var sb strings.Builder
	sb.WriteString("Fabric workloads (internal/fabric + internal/load):\n")
	row := func(fr FabricRun) {
		fmt.Fprintf(&sb, "  %-22s %-14s cc=%-5s bytes=%-9d jain=%.4f",
			fr.Name, fr.Topology, fr.CC, fr.TotalBytes, fr.Jain)
		if fr.LatP99Us > 0 {
			fmt.Fprintf(&sb, " p99=%.0fus", fr.LatP99Us)
		}
		fmt.Fprintf(&sb, " marks=%d drops=%d rto=%d", fr.ECNMarked, fr.TrunkDrops, fr.RtoFires)
		if fr.Audit != "" {
			fmt.Fprintf(&sb, " audit=%s", fr.Audit)
		}
		if len(fr.Verdicts) > 0 {
			fmt.Fprintf(&sb, " verdicts=%v", fr.Verdicts)
		}
		sb.WriteByte('\n')
		for _, t := range fr.Trunks {
			fmt.Fprintf(&sb, "    trunk %-14s ab=%-9d ba=%-9d drops=%d/%d\n",
				t.Name, int64(t.AB), int64(t.BA), t.DropsAB, t.DropsBA)
		}
	}
	for _, fr := range []FabricRun{b.IncastReno, b.IncastDctcp, b.MiceReno,
		b.MiceDctcp, b.HotspotA, b.HotspotB, b.Partition} {
		row(fr)
	}
	return sb.String()
}
