package fabric

import (
	"testing"

	"repro/internal/hippi"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

func TestParse(t *testing.T) {
	for _, spec := range []string{"single", "linear:3", "leafspine:4x2", "fattree:2x2"} {
		tp, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if tp.String() != spec {
			t.Errorf("Parse(%q).String() = %q", spec, tp.String())
		}
	}
	if tp := MustParse("fattree:4x2"); tp.Parallel != 2 || tp.Leaves != 4 || tp.Spines != 2 {
		t.Errorf("fattree:4x2 = %+v", tp)
	}
	if tp := MustParse("linear:5"); tp.Edges() != 5 {
		t.Errorf("linear:5 edges = %d", tp.Edges())
	}
	if tp := MustParse("leafspine:4x2"); tp.Edges() != 4 {
		t.Errorf("leafspine:4x2 edges = %d", tp.Edges())
	}
	for _, bad := range []string{
		"", "ring:4", "linear:1", "linear:x", "leafspine:4", "leafspine:1x2",
		"leafspine:4x0", "fattree:ax2", "single:2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

// frame builds a minimal wire-correct frame: link header, IP header with
// the given ECN codepoint, and a 4-byte transport port pair.
func frame(src, dst hippi.NodeID, sport, dport uint16, ecn uint8) *hippi.Frame {
	b := make([]byte, int(wire.LinkHdrLen+wire.IPHdrLen)+4)
	wire.LinkHdr{Dst: uint32(dst), Src: uint32(src), Type: wire.EtherTypeIP,
		Len: uint32(len(b))}.Marshal(b)
	wire.IPHdr{TotLen: wire.IPHdrLen + 4, TTL: 16, Proto: wire.ProtoTCP,
		ECN: ecn, Src: wire.Addr(src), Dst: wire.Addr(dst)}.Marshal(b[wire.LinkHdrLen:])
	tr := b[wire.LinkHdrLen+wire.IPHdrLen:]
	tr[0], tr[1] = byte(sport>>8), byte(sport)
	tr[2], tr[3] = byte(dport>>8), byte(dport)
	return &hippi.Frame{Src: src, Dst: dst, Data: b}
}

func TestMarkCE(t *testing.T) {
	f := frame(1, 2, 5001, 40000, wire.ECNECT0)
	if !MarkCE(f.Data) {
		t.Fatal("ECT frame not marked")
	}
	iph, err := wire.ParseIPHdr(f.Data[wire.LinkHdrLen:])
	if err != nil {
		t.Fatalf("header checksum broken by marking: %v", err)
	}
	if iph.ECN != wire.ECNCE {
		t.Fatalf("ECN = %#b, want CE", iph.ECN)
	}
	if MarkCE(f.Data) {
		t.Fatal("already-CE frame marked again")
	}
	if MarkCE(frame(1, 2, 5001, 40000, 0).Data) {
		t.Fatal("non-ECT frame marked")
	}
}

// routed returns a network holding tp's trunks and tp's route function
// over them for seed.
func routed(tp Topology, seed uint64) (*hippi.Network, hippi.RouteFunc) {
	net := hippi.NewNetwork(sim.NewEngine(1), hippi.LineRate, 0)
	return net, tp.router(seed, tp.addTrunks(net))
}

// TestECMPDeterminism pins the hashing contract: the same seed assigns
// every flow the same uplink (run to run), and different seeds produce a
// measurably different assignment.
func TestECMPDeterminism(t *testing.T) {
	tp := MustParse("leafspine:4x2")
	net, r1 := routed(tp, 7)
	_, r1b := routed(tp, 7)
	_, r2 := routed(tp, 8)
	diff := 0
	for port := uint16(0); port < 64; port++ {
		f := frame(2, 9, 40000+port, 5001, 0)
		a, b, c := r1(f, 1, 0), r1b(f, 1, 0), r2(f, 1, 0)
		if a != b {
			t.Fatalf("same seed diverged: %q vs %q", net.TrunkName(a), net.TrunkName(b))
		}
		if a != c {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 7 and 8 produced identical path assignment for 64 flows")
	}

	// Port-insensitive fallback: fragments hash on the 3-tuple only, so
	// every fragment of a datagram takes one path.
	fr := frame(2, 9, 40000, 5001, 0)
	fr.Data[wire.LinkHdrLen+6] |= 0x20 // MF
	wantFrag := r1(fr, 1, 0)
	fr2 := frame(2, 9, 41111, 5001, 0)
	fr2.Data[wire.LinkHdrLen+6] |= 0x20
	if got := r1(fr2, 1, 0); got != wantFrag {
		t.Fatalf("fragments of one src/dst pair split paths: %q vs %q", net.TrunkName(got), net.TrunkName(wantFrag))
	}
}

func TestLinearRoute(t *testing.T) {
	net, r := routed(MustParse("linear:4"), 1)
	f := frame(1, 9, 1, 2, 0)
	if got := net.TrunkName(r(f, 0, 3)); got != "sw0-sw1" {
		t.Fatalf("0→3 first hop %q", got)
	}
	if got := net.TrunkName(r(f, 2, 3)); got != "sw2-sw3" {
		t.Fatalf("2→3 hop %q", got)
	}
	if got := net.TrunkName(r(f, 3, 0)); got != "sw2-sw3" {
		t.Fatalf("3→0 first hop %q", got)
	}
}

// TestRouteAllocBudget pins a hop's route and trunk lookup at zero
// allocations: trunk names are made once, when the trunk is added.
func TestRouteAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	// Linear: two chain hops. Fat tree: a leaf uplink, then a spine
	// downlink.
	for spec, at := range map[string][2]hippi.SwitchID{"linear:4": {1, 3}, "fattree:4x2": {1, 4}} {
		net, r := routed(MustParse(spec), 7)
		f := frame(2, 9, 40000, 5001, 0)
		allocs := testing.AllocsPerRun(100, func() {
			for _, sw := range at {
				if net.TrunkName(r(f, sw, 0)) == "" {
					t.Fatal("unnamed trunk")
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: route + trunk lookup allocates %v objects per run, want 0", spec, allocs)
		}
	}
}

func TestPlaceRacked(t *testing.T) {
	tp := MustParse("leafspine:4x2")
	place := tp.PlaceRacked([]hippi.NodeID{1}, []hippi.NodeID{2, 3, 4, 5})
	if place(1) != 0 {
		t.Fatalf("server on switch %d", place(1))
	}
	want := []hippi.SwitchID{1, 2, 3, 1}
	for i, id := range []hippi.NodeID{2, 3, 4, 5} {
		if place(id) != want[i] {
			t.Fatalf("client %d on switch %d, want %d", id, place(id), want[i])
		}
	}
}

// TestFabricDelivery drives frames across a leaf/spine fabric end to end:
// every frame arrives exactly once, trunk byte counters account the
// crossing traffic, and a partitioned spine link eats exactly the flows
// hashed onto it.
func TestFabricDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	net := hippi.NewNetwork(eng, 100*units.MBytePerSec, 5*units.Microsecond)
	tp := MustParse("leafspine:2x2")
	tp.Install(net, 42)
	net.SetPlacement(tp.PlaceRacked([]hippi.NodeID{1}, []hippi.NodeID{2, 3}))

	got := map[hippi.NodeID]int{}
	for _, id := range []hippi.NodeID{1, 2, 3} {
		id := id
		net.Attach(id, func(f hippi.Frame) { got[id]++ })
	}
	for i := 0; i < 8; i++ {
		net.SendFrame(*frame(2, 1, uint16(40000+i), 5001, 0), nil)
		net.SendFrame(*frame(3, 1, uint16(41000+i), 5001, 0), nil)
	}
	net.SendFrame(*frame(1, 2, 5001, 40000, 0), nil)
	eng.Run()

	if got[1] != 16 || got[2] != 1 {
		t.Fatalf("delivered %v, want 16 to node 1 and 1 to node 2", got)
	}
	if net.Delivered != 17 || net.Dropped != 0 {
		t.Fatalf("Delivered=%d Dropped=%d", net.Delivered, net.Dropped)
	}
	var crossed units.Size
	for _, ts := range net.TrunkStats() {
		crossed += ts.AB + ts.BA
	}
	flen := units.Size(int(wire.LinkHdrLen+wire.IPHdrLen) + 4)
	if want := 17 * 2 * flen; crossed != want {
		t.Fatalf("trunk bytes %d, want %d (every frame crosses two trunks)", crossed, want)
	}
}

type downLink string

func (d downLink) LinkDown(name string, now units.Time) bool { return string(d) == name }

func TestFabricPartitionDropsOnlyHashedFlows(t *testing.T) {
	eng := sim.NewEngine(1)
	net := hippi.NewNetwork(eng, 100*units.MBytePerSec, 5*units.Microsecond)
	tp := MustParse("leafspine:2x2")
	tp.Install(net, 42)
	net.SetPlacement(tp.PlaceRacked([]hippi.NodeID{1}, []hippi.NodeID{2}))
	net.SetLinkInjector(downLink("leaf1-spine0"))

	delivered := 0
	net.Attach(1, func(hippi.Frame) { delivered++ })
	net.Attach(2, func(hippi.Frame) {})
	names, r := routed(tp, 42)
	viaDown := 0
	for i := 0; i < 16; i++ {
		f := frame(2, 1, uint16(40000+i), 5001, 0)
		if names.TrunkName(r(f, 1, 0)) == "leaf1-spine0" {
			viaDown++
		}
		net.SendFrame(*f, nil)
	}
	eng.Run()
	if viaDown == 0 || viaDown == 16 {
		t.Fatalf("degenerate hash split: %d/16 via downed link", viaDown)
	}
	if delivered != 16-viaDown || net.DroppedInj != viaDown {
		t.Fatalf("delivered=%d droppedInj=%d, want %d/%d",
			delivered, net.DroppedInj, 16-viaDown, viaDown)
	}
}

type dupAll struct{}

func (dupAll) Frame(*hippi.Frame) hippi.Verdict { return hippi.Verdict{Dup: 1} }

// TestDupCopiesOwnTheirBytes: an injector-duplicated frame used to share
// one Data between its deliveries, so an in-place CE mark — or a receiver
// that keeps the buffer — hit both. Each delivery now has bytes of its own,
// on the single-switch path and across trunks.
func TestDupCopiesOwnTheirBytes(t *testing.T) {
	for _, topo := range []string{"single", "leafspine:2x1"} {
		eng := sim.NewEngine(1)
		net := hippi.NewNetwork(eng, 100*units.MBytePerSec, 5*units.Microsecond)
		tp := MustParse(topo)
		tp.Install(net, 42)
		net.SetPlacement(tp.PlaceRacked([]hippi.NodeID{1}, []hippi.NodeID{2}))
		net.Inj = dupAll{}
		var got [][]byte
		net.Attach(1, func(f hippi.Frame) { got = append(got, f.Data) })
		net.Attach(2, func(hippi.Frame) {})
		net.SendFrame(*frame(2, 1, 40000, 5001, wire.ECNECT0), nil)
		eng.Run()

		if len(got) != 2 || net.Duped != 1 {
			t.Fatalf("%s: %d deliveries, Duped=%d; want 2, 1", topo, len(got), net.Duped)
		}
		if &got[0][0] == &got[1][0] {
			t.Fatalf("%s: both deliveries share one backing array", topo)
		}
		if !MarkCE(got[0]) {
			t.Fatalf("%s: ECT frame not marked", topo)
		}
		ecn := func(b []byte) uint8 { return b[wire.LinkHdrLen+wire.ECNOff] & 0x3 }
		if ecn(got[0]) != wire.ECNCE || ecn(got[1]) != wire.ECNECT0 {
			t.Fatalf("%s: ECN bits %#x / %#x after marking the first copy; want CE / ECT0",
				topo, ecn(got[0]), ecn(got[1]))
		}
	}
}
