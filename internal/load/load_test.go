package load

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/obs/engine"
	"repro/internal/race"
	"repro/internal/socket"
	"repro/internal/units"
)

// TestLoadSmoke runs a small mixed TCP/UDP request/response scenario and
// checks every flow completed cleanly with byte-exact delivery.
func TestLoadSmoke(t *testing.T) {
	rep, err := Run(Scenario{
		Name:     "smoke",
		Seed:     7,
		Clients:  2,
		Servers:  2,
		Flows:    16,
		UDPFrac:  0.25,
		Mode:     socket.ModeSingleCopy,
		Requests: 3,
		Think:    200 * units.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d (%s)", rep.Errors, rep.FirstError)
	}
	if rep.TCPFlows != 12 || rep.UDPFlows != 4 {
		t.Fatalf("flow split: %d tcp %d udp", rep.TCPFlows, rep.UDPFlows)
	}
	if want := int64(rep.TCPFlows * 3); rep.Requests != want {
		t.Fatalf("requests: %d want %d", rep.Requests, want)
	}
	if rep.DgramsRcvd != rep.DgramsSent {
		t.Fatalf("udp loss in uncontended smoke: %d/%d", rep.DgramsRcvd, rep.DgramsSent)
	}
	if rep.Starved != 0 {
		t.Fatalf("starved flows: %d", rep.Starved)
	}
	if rep.TotalBytes == 0 || rep.LatP50Us == 0 {
		t.Fatalf("empty report: %+v", rep)
	}
}

// TestMinimumMTU runs TCP flows over IPv4's minimum MTU, 68 bytes: with a
// 28-byte MSS every 32-byte frame header arrives in two reads, which must
// land one after the other. An MTU below the minimum is refused before any
// host exists (10 and 20 used to panic, 40 to leave an MSS of 0 and never
// end).
func TestMinimumMTU(t *testing.T) {
	for _, mode := range []socket.Mode{socket.ModeSingleCopy, socket.ModeUnmodified} {
		rep, err := Run(Scenario{Name: "mtu68", Seed: 3, Flows: 2, Mode: mode, MTU: 68})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.Requests != 2*4 {
			t.Errorf("mode %d: %d errors (%s), %d requests, want 0 and 8", mode, rep.Errors, rep.FirstError, rep.Requests)
		}
	}
	for _, mtu := range []units.Size{10, 20, 40, 67, -1} {
		if _, err := Run(Scenario{Flows: 2, MTU: mtu}); err == nil {
			t.Errorf("MTU %v accepted", mtu)
		}
	}
}

// TestLoadOpenLoop exercises the Poisson open-loop generator.
func TestLoadOpenLoop(t *testing.T) {
	rep, err := Run(Scenario{
		Name:     "openloop",
		Seed:     11,
		Flows:    8,
		Mode:     socket.ModeSingleCopy,
		OpenLoop: true,
		Rate:     5000,
		Requests: 5,
		Stagger:  100 * units.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("errors: %d (%s)", rep.Errors, rep.FirstError)
	}
	if want := int64(8 * 5); rep.Requests != want {
		t.Fatalf("requests: %d want %d", rep.Requests, want)
	}
}

// TestLoadBulk checks the bulk-streaming mode delivers byte-exact
// streams on every flow, on both stacks, and that every stream audits
// clean against its stack's Table 1 cells.
func TestLoadBulk(t *testing.T) {
	for _, mode := range []socket.Mode{socket.ModeSingleCopy, socket.ModeUnmodified} {
		rep, err := Run(Scenario{
			Name:      "bulk",
			Seed:      3,
			Flows:     4,
			Mode:      mode,
			Bulk:      true,
			Duration:  30 * units.Millisecond,
			BulkWrite: 32 * units.KB,
			Recorders: core.Recorders{Ledger: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("mode %d: errors: %d (%s)", mode, rep.Errors, rep.FirstError)
		}
		if rep.Starved != 0 {
			t.Fatalf("mode %d: starved flows: %d", mode, rep.Starved)
		}
		if rep.GoodputMinMbps <= 0 {
			t.Fatalf("mode %d: zero min goodput: %+v", mode, rep)
		}
		if rep.Audit != "ok" {
			t.Fatalf("mode %d: audit = %q, want ok", mode, rep.Audit)
		}
	}
}

// determinismScenario is the 256-flow mixed scenario the determinism
// check runs twice.
func determinismScenario() Scenario {
	return Scenario{
		Name:     "mixed-256",
		Seed:     42,
		Clients:  4,
		Servers:  2,
		Flows:    256,
		UDPFrac:  0.25,
		Mode:     socket.ModeSingleCopy,
		Requests: 2,
		OpenLoop: true,
		Rate:     2000,
		Stagger:  500 * units.Microsecond,
		Arbiter:  &cab.ArbConfig{},
	}
}

// TestLoadDeterminism256 runs the 256-flow scenario twice and requires
// byte-identical reports (including the event-order digest).
func TestLoadDeterminism256(t *testing.T) {
	r1, err := Run(determinismScenario())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(determinismScenario())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Errors != 0 {
		t.Fatalf("errors: %d (%s)", r1.Errors, r1.FirstError)
	}
	if r1.OrderDigest != r2.OrderDigest {
		t.Fatalf("event order digests differ: %s vs %s", r1.OrderDigest, r2.OrderDigest)
	}
	j1, j2 := r1.JSON(), r2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", j1, j2)
	}
}

// TestLoad1024 is the scale acceptance check: a 1024-flow mixed TCP/UDP
// scenario over 8 clients and 4 servers, arbiter on, must complete with
// byte-exact delivery on every flow (pattern verification is built into
// the flow loops) and reproduce byte-identically when rerun.
func TestLoad1024(t *testing.T) {
	scenario := func() Scenario {
		return Scenario{
			Name:     "mixed-1024",
			Seed:     9,
			Clients:  8,
			Servers:  4,
			Flows:    1024,
			UDPFrac:  0.25,
			Mode:     socket.ModeSingleCopy,
			Requests: 2,
			OpenLoop: true,
			Rate:     2000,
			Stagger:  units.Millisecond,
			Arbiter:  &cab.ArbConfig{},
		}
	}
	r1, err := Run(scenario())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Errors != 0 {
		t.Fatalf("errors: %d (%s)", r1.Errors, r1.FirstError)
	}
	if want := int64(r1.TCPFlows * 2); r1.Requests != want {
		t.Fatalf("requests: %d want %d", r1.Requests, want)
	}
	if r1.DgramsRcvd != r1.DgramsSent {
		t.Fatalf("udp datagrams lost: %d/%d", r1.DgramsRcvd, r1.DgramsSent)
	}
	if r1.Starved != 0 {
		t.Fatalf("starved flows: %d", r1.Starved)
	}
	r2, err := Run(scenario())
	if err != nil {
		t.Fatal(err)
	}
	if r1.OrderDigest != r2.OrderDigest {
		t.Fatalf("event order digests differ: %s vs %s", r1.OrderDigest, r2.OrderDigest)
	}
	if !bytes.Equal(r1.JSON(), r2.JSON()) {
		t.Fatal("1024-flow reports differ between identical runs")
	}
}

// TestNetObsSameSeedByteIdentical pins the transport-dynamics recorder's
// determinism: two same-seed runs with the observatory (and the series
// sampler) on must produce byte-identical recorder dumps, postmortems and
// series snapshots — the property the BENCH_netobs.json exact-diff gate
// relies on.
func TestNetObsSameSeedByteIdentical(t *testing.T) {
	run := func() *Report {
		s := Scenario{
			Name:      "netobs-det",
			Seed:      17,
			Clients:   3,
			Servers:   2,
			Flows:     8,
			UDPFrac:   0.25,
			Mode:      socket.ModeSingleCopy,
			Bulk:      true,
			Duration:  10 * units.Millisecond,
			BulkWrite: 16 * units.KB,
			Recorders: core.Recorders{NetObs: true, Series: 100 * units.Microsecond},
		}
		rep, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 {
			t.Fatalf("errors: %d (%s)", rep.Errors, rep.FirstError)
		}
		return rep
	}
	r1, r2 := run(), run()
	tb1, tb2 := r1.Testbed, r2.Testbed
	if r1.NetObs == nil || tb1.NetObs == nil || tb1.Series == nil {
		t.Fatalf("netobs/series not plumbed: pm=%v rec=%v series=%v",
			r1.NetObs != nil, tb1.NetObs != nil, tb1.Series != nil)
	}
	if d1, d2 := tb1.NetObs.Snapshot().JSON(), tb2.NetObs.Snapshot().JSON(); !bytes.Equal(d1, d2) {
		t.Fatal("recorder dumps differ between same-seed runs")
	}
	if p1, p2 := r1.NetObs.JSON(), r2.NetObs.JSON(); !bytes.Equal(p1, p2) {
		t.Fatal("postmortems differ between same-seed runs")
	}
	if s1, s2 := tb1.Series.Snapshot().JSON(), tb2.Series.Snapshot().JSON(); !bytes.Equal(s1, s2) {
		t.Fatal("series snapshots differ between same-seed runs")
	}
	if len(r1.NetObs.Flows) == 0 {
		t.Fatal("postmortem recorded no flows")
	}
	// The observatory must not perturb the simulation: the report of an
	// instrumented run matches the uninstrumented baseline byte for byte.
	plain := func() *Report {
		s := Scenario{
			Name:      "netobs-det",
			Seed:      17,
			Clients:   3,
			Servers:   2,
			Flows:     8,
			UDPFrac:   0.25,
			Mode:      socket.ModeSingleCopy,
			Bulk:      true,
			Duration:  10 * units.Millisecond,
			BulkWrite: 16 * units.KB,
		}
		rep, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if r1.OrderDigest != plain.OrderDigest {
		t.Fatalf("netobs perturbed the event order: %s vs %s", r1.OrderDigest, plain.OrderDigest)
	}
}

// fairnessScenario is a netmem-starved incast: 8 TCP bulk
// elephants plus 3 uncontrolled UDP blasters, each on its own client
// host, converge on one server whose adaptor has 256 KB of network
// memory. The blaster datagrams land in receivers that take 60 ms per
// datagram, so unread datagrams hold their netmem pages (UDP has no flow
// control) and pages free at only one datagram per ~20 ms. Without
// arbitration the receive netmem saturates, every TCP segment overstays
// the hold-queue retry budget behind the blaster backlog, and after the
// start-up transient (excluded via Warmup) the elephants are starved into
// RTO backoff. With the arbiter each blaster is confined to its page
// share, so the elephants keep their staging memory and split the drain
// bandwidth evenly. arb toggles the arbiter.
func fairnessScenario(arb bool) Scenario {
	s := Scenario{
		Name:           "fair-8",
		Seed:           5,
		Clients:        11,
		Servers:        1,
		Flows:          11,
		UDPFrac:        0.27,
		Mode:           socket.ModeSingleCopy,
		Bulk:           true,
		Duration:       120 * units.Millisecond,
		Warmup:         20 * units.Millisecond,
		Stagger:        60 * units.Millisecond,
		BulkWrite:      16 * units.KB,
		UDPServerThink: 45 * units.Millisecond,
		// One 16KB segment in flight per flow: each elephant's receive
		// staging (3 pages) fits its arbiter share (5 pages), so admission
		// never turns a transient denial into a reassembly gap that pins
		// pages over-share for the whole retransmission timeout. It also
		// keeps in-flight data far below the client adaptors' network
		// memory, so a sender can always stage a retransmission.
		Window: 16 * units.KB,
		CABConfig: &cab.Config{
			MemSize:    512 * units.KB,
			PageSize:   8 * units.KB,
			AutoDMALen: 784,
			RxCsumSkip: 80,
			Channels:   8,
		},
	}
	if arb {
		s.Name = "fair-8-arb"
		s.Arbiter = &cab.ArbConfig{}
	}
	return s
}

// TestLoadFairnessArbiter is the headline acceptance check: under netmem
// starvation the arbiter keeps the bulk flows at Jain >= 0.9 with
// no starved flow, while the unarbitrated baseline demonstrably violates
// that.
func TestLoadFairnessArbiter(t *testing.T) {
	base, err := Run(fairnessScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	arb, err := Run(fairnessScenario(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline: jain=%.4f min=%.2f max=%.2f starved=%d drops=%d",
		base.Jain, base.GoodputMinMbps, base.GoodputMaxMbps, base.Starved, base.Drops)
	t.Logf("arbiter:  jain=%.4f min=%.2f max=%.2f starved=%d waits=%d borrows=%d",
		arb.Jain, arb.GoodputMinMbps, arb.GoodputMaxMbps, arb.Starved, arb.ArbWaits, arb.ArbBorrows)
	if arb.Errors != 0 {
		t.Fatalf("arbiter run errors: %d (%s)", arb.Errors, arb.FirstError)
	}
	// Baseline errors (connection timeouts from retransmission giving up)
	// are part of the demonstration, not a harness failure.
	if base.Errors != 0 {
		t.Logf("baseline errors (expected under starvation): %d (%s)", base.Errors, base.FirstError)
	}
	if arb.Jain < 0.9 {
		t.Errorf("arbitrated fairness %.4f < 0.9", arb.Jain)
	}
	if arb.GoodputMinMbps <= 0 || arb.Starved != 0 {
		t.Errorf("arbitrated run starved a flow: min=%v starved=%d", arb.GoodputMinMbps, arb.Starved)
	}
	if base.Jain >= 0.9 && base.Starved == 0 {
		t.Errorf("baseline unexpectedly fair (jain=%.4f, starved=%d): contention too weak to demonstrate the arbiter", base.Jain, base.Starved)
	}
}

// TestFabricIncastMallocBudget pins the host allocation rate of the
// repository benchmark's fabric_incast workload, at its smoke-test shape:
// every data segment crosses two trunks, so closures per wire event or per
// SDMA request, trunk names built per hop, and iovec slices per UIO walk
// all show here, and so would a per-packet record that stopped coming from
// its free list, or a timer record per arm. The budget is the 0.173 heap
// objects per engine event that set-up leaves, plus 10 % (it was 1.9, then
// 0.644 with a fresh record per packet per layer, then 0.318 with a UIO and
// uiowCABhdrs built per socket call, then 0.281 with a record held per
// pending timer expiry).
func TestFabricIncastMallocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	obs := engine.New()
	rep, err := Run(Scenario{
		Name: "fabric_incast", Seed: 7, Clients: 8, Servers: 8, Flows: 32,
		Mode: socket.ModeSingleCopy, Topology: "leafspine:4x1", QueueCap: 256 * units.KB,
		Bulk: true, Duration: 60 * units.Millisecond, Warmup: 10 * units.Millisecond,
		BulkWrite: 16 * units.KB, Window: 128 * units.KB, MTU: 8*units.KB + 64,
		CABConfig: &cab.Config{MemSize: 1024 * units.KB, PageSize: 8 * units.KB,
			AutoDMALen: 784, RxCsumSkip: 80, Channels: 8},
		Recorders: core.Recorders{EngObs: obs},
	})
	if err != nil || rep.Errors != 0 || rep.TotalBytes == 0 {
		t.Fatalf("run: err=%v errors=%d delivered=%d", err, rep.Errors, rep.TotalBytes)
	}
	snap := obs.Snapshot()
	perEv := float64(snap.Adv.Allocs) / float64(snap.Det.EventsTotal)
	t.Logf("%d heap objects over %d events: %.3f per event", snap.Adv.Allocs, snap.Det.EventsTotal, perEv)
	const budget = 0.173 * 1.1
	if perEv > budget {
		t.Fatalf("%.3f heap objects per engine event, budget %.3f", perEv, budget)
	}
}

// TestIncastInCheckModeChangeNothing runs a leaf-spine incast with trunk
// tail drops and ECMP twice, once as built and once with every free list
// in check mode (a released object is poisoned and never reused), and
// requires the same report from both. It is the fabric's share of the
// use-after-release checks; the soak and recovery cases are in hippi,
// mbuf and cabdrv.
func TestIncastInCheckModeChangeNothing(t *testing.T) {
	run := func(check bool) string {
		rep, err := Run(Scenario{
			Name: "pools-incast", Seed: 3, Clients: 8, Servers: 8, Flows: 32,
			Mode: socket.ModeSingleCopy, Topology: "leafspine:4x1", QueueCap: 64 * units.KB,
			Bulk: true, Duration: 60 * units.Millisecond, Warmup: 10 * units.Millisecond,
			BulkWrite: 16 * units.KB, Window: 128 * units.KB, MTU: 8*units.KB + 64,
			CABConfig: &cab.Config{MemSize: 512 * units.KB, PageSize: 8 * units.KB,
				AutoDMALen: 784, RxCsumSkip: 80, Channels: 8},
			CheckPools: check,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TrunkDrops == 0 || rep.TotalBytes == 0 {
			t.Errorf("vacuous: the incast delivered %d bytes and tail-dropped %d frames", rep.TotalBytes, rep.TrunkDrops)
		}
		j, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(j)
	}
	plain := run(false)
	if checked := run(true); checked != plain {
		t.Errorf("check mode changed the run\nplain:   %.400s\nchecked: %.400s", plain, checked)
	}
}

// TestRecordersChangeNothing runs a small bulk incast twice, recording
// nothing and then every recorder, and requires the same deliveries and
// the same report: recorders observe a run and never steer it. The two
// report fields only recorders fill (the ledger's audit verdict and the
// netobs postmortem) are set aside before the comparison.
func TestRecordersChangeNothing(t *testing.T) {
	run := func(rec core.Recorders) *Report {
		rep, err := Run(Scenario{
			Name: "recorders-incast", Seed: 5, Clients: 4, Servers: 1, Flows: 8,
			Mode: socket.ModeSingleCopy, Bulk: true, Duration: 10 * units.Millisecond,
			BulkWrite: 16 * units.KB, Arbiter: &cab.ArbConfig{},
			Recorders: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.TotalBytes == 0 {
			t.Fatalf("errors %d (%s), delivered %d bytes", rep.Errors, rep.FirstError, rep.TotalBytes)
		}
		return rep
	}
	off := run(core.Recorders{})
	on := run(core.Recorders{Telemetry: true, CritPath: true, Profile: true, Ledger: true, NetObs: true,
		Series: 100 * units.Microsecond, EngObs: engine.New()})
	tb := on.Testbed
	if tb.Tel == nil || tb.Tel.Crit() == nil || tb.Prof == nil || tb.Led == nil ||
		tb.NetObs == nil || tb.Series == nil || tb.EngObs == nil {
		t.Fatal("a recorder named in the scenario was not attached")
	}
	if len(tb.Led.Records()) == 0 || len(tb.Tel.Crit().Events()) == 0 || on.Audit != "ok" || on.NetObs == nil {
		t.Fatalf("vacuous: %d ledger records, %d causal events, audit %q, postmortem %v",
			len(tb.Led.Records()), len(tb.Tel.Crit().Events()), on.Audit, on.NetObs != nil)
	}
	if on.OrderDigest != off.OrderDigest {
		t.Fatalf("order digest %s with every recorder, %s with none", on.OrderDigest, off.OrderDigest)
	}
	on.Audit, on.NetObs = "", nil
	if a, b := off.JSON(), on.JSON(); !bytes.Equal(a, b) {
		t.Errorf("recorders changed the report\noff: %.400s\non:  %.400s", a, b)
	}
}
