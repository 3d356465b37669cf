package ethdev

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

func rig(t *testing.T) (*sim.Engine, *kern.Kernel, *kern.Kernel, *Driver, *Driver, *[]*mbuf.Mbuf) {
	t.Helper()
	eng := sim.NewEngine(1)
	ka := kern.New("A", eng, cost.Alpha400())
	kb := kern.New("B", eng, cost.Alpha400())
	net := hippi.NewNetwork(eng, 100*units.Mbps, 50*units.Microsecond)
	da := New("en0", ka, net, 11, 0)
	db := New("en0", kb, net, 12, 0)
	var rx []*mbuf.Mbuf
	da.Input = func(kern.Ctx, *mbuf.Mbuf, netif.Interface) {}
	db.Input = func(ctx kern.Ctx, m *mbuf.Mbuf, from netif.Interface) { rx = append(rx, m) }
	return eng, ka, kb, da, db, &rx
}

// ipWrap prepends a valid IP header in place.
func ipWrap(payload *mbuf.Mbuf) *mbuf.Mbuf {
	n := mbuf.ChainLen(payload)
	m := payload.Prepend(wire.IPHdrLen)
	wire.IPHdr{TotLen: wire.IPHdrLen + n, TTL: 30, Proto: 99,
		Src: 1, Dst: 2}.Marshal(m.Bytes()[:wire.IPHdrLen])
	if !m.IsPktHdr() {
		m.MarkPktHdr(wire.IPHdrLen + n)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	eng, ka, _, da, _, rx := rig(t)
	payload := make([]byte, 1200)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	eng.Go("tx", func(p *sim.Proc) {
		da.Output(ka.TaskCtx(p, ka.KernelTask), ipWrap(mbuf.NewCluster(payload)), 12)
	})
	eng.Run()
	defer eng.KillAll()
	if len(*rx) != 1 {
		t.Fatalf("delivered %d, want 1", len(*rx))
	}
	got := mbuf.Materialize((*rx)[0])
	if !bytes.Equal(got[wire.IPHdrLen:], payload) {
		t.Fatal("payload corrupted")
	}
	if mbuf.HasDescriptors((*rx)[0]) {
		t.Fatal("legacy device delivered descriptors")
	}
}

func TestDescriptorConversionAtEntry(t *testing.T) {
	eng, ka, _, da, _, rx := rig(t)
	space := mem.NewAddrSpace("u", 1*units.MB, ka.Mach.PageSize)
	buf := space.Alloc(1000, 4)
	for i := range buf.Bytes() {
		buf.Bytes()[i] = byte(i)
	}
	u := &mem.UIO{Buf: buf}
	eng.Go("tx", func(p *sim.Proc) {
		da.Output(ka.TaskCtx(p, ka.KernelTask), ipWrap(mbuf.NewUIO(u, 0, 1000, nil)), 12)
	})
	eng.Run()
	defer eng.KillAll()
	if da.Converted != 1 {
		t.Fatalf("conversions = %d, want 1", da.Converted)
	}
	if len(*rx) != 1 {
		t.Fatal("packet lost")
	}
	got := mbuf.Materialize((*rx)[0])
	if !bytes.Equal(got[wire.IPHdrLen:], buf.Bytes()) {
		t.Fatal("converted payload corrupted")
	}
}

func TestCapsAndGeometry(t *testing.T) {
	_, _, _, da, _, _ := rig(t)
	if da.Caps().SingleCopy {
		t.Fatal("legacy device must not advertise single-copy")
	}
	if da.MTU() != DefaultMTU {
		t.Fatalf("MTU = %v, want %v", da.MTU(), DefaultMTU)
	}
	if da.Name() != "en0" {
		t.Fatalf("name = %q", da.Name())
	}
}

func TestSerializationOrder(t *testing.T) {
	eng, ka, _, da, _, rx := rig(t)
	eng.Go("tx", func(p *sim.Proc) {
		ctx := ka.TaskCtx(p, ka.KernelTask)
		for i := 0; i < 5; i++ {
			b := mbuf.NewCluster([]byte{byte(i)})
			da.Output(ctx, ipWrap(b), 12)
		}
	})
	eng.Run()
	defer eng.KillAll()
	if len(*rx) != 5 {
		t.Fatalf("delivered %d, want 5", len(*rx))
	}
	for i, m := range *rx {
		if got := mbuf.Materialize(m); got[wire.IPHdrLen] != byte(i) {
			t.Fatalf("packet %d out of order (marker %d)", i, got[wire.IPHdrLen])
		}
	}
}
