package netif

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

type fakeIf struct{ name string }

func (f *fakeIf) Name() string                          { return f.name }
func (f *fakeIf) MTU() units.Size                       { return 1500 }
func (f *fakeIf) Caps() Caps                            { return Caps{} }
func (f *fakeIf) Output(kern.Ctx, *mbuf.Mbuf, LinkAddr) {}

// TestRoutingTableHostAndDefault: each host route resolves to its own
// interface and link address, and by default — for a host with no route
// of its own — Lookup misses: the table has no default route.
func TestRoutingTableHostAndDefault(t *testing.T) {
	tbl := NewTable()
	cab, eth := &fakeIf{"cab0"}, &fakeIf{"en0"}
	tbl.AddHost(wire.Addr(10), cab, 1)
	tbl.AddHost(wire.Addr(20), eth, 99)

	r, err := tbl.Lookup(wire.Addr(10))
	if err != nil || r.If != cab || r.Link != 1 {
		t.Fatalf("host route lookup: %+v %v", r, err)
	}
	r, err = tbl.Lookup(wire.Addr(20))
	if err != nil || r.If != eth || r.Link != 99 {
		t.Fatalf("second host route lookup: %+v %v", r, err)
	}
	if _, err := tbl.Lookup(wire.Addr(30)); err == nil {
		t.Fatal("a host with no route of its own must miss")
	}
}

func TestLookupNoRoute(t *testing.T) {
	tbl := NewTable()
	if _, err := tbl.Lookup(wire.Addr(1)); err == nil {
		t.Fatal("expected no-route error")
	}
}

// trackNotifier counts DMADone notifications.
type trackNotifier struct{ done units.Size }

func (n *trackNotifier) DMADone(s units.Size) { n.done += s }

func TestConvertForLegacyMaterializes(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kern.New("h", eng, cost.Alpha400())
	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	buf := space.Alloc(20000, 4)
	for i := range buf.Bytes() {
		buf.Bytes()[i] = byte(i * 3)
	}
	u := &mem.UIO{Buf: buf}

	eng.Go("t", func(p *sim.Proc) {
		ctx := k.TaskCtx(p, k.KernelTask)
		nt := &trackNotifier{}
		hdr := mbuf.NewData(make([]byte, 40))
		hdr.SetNext(mbuf.NewUIO(u, 0, 20000, &mbuf.Hdr{Owner: nt}))
		hdr.MarkPktHdr(20040)
		want := mbuf.Materialize(hdr)

		out := ConvertForLegacy(ctx, hdr)
		if mbuf.HasDescriptors(out) {
			t.Error("descriptors survived conversion")
		}
		if !out.IsPktHdr() || out.PktLen() != 20040 {
			t.Errorf("packet header lost: %v/%v", out.IsPktHdr(), out.PktLen())
		}
		if !bytes.Equal(mbuf.Materialize(out), want) {
			t.Error("conversion corrupted data")
		}
		// Without an OnConverted callback the shim notifies owners
		// directly.
		if nt.done != 20000 {
			t.Errorf("owner notified of %v bytes, want 20000", nt.done)
		}
		// The copy must have been charged.
		if k.CategoryTime(kern.CatCopy) == 0 {
			t.Error("conversion copy not charged")
		}
	})
	eng.Run()
	eng.KillAll()
}

func TestConvertForLegacyPassThrough(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kern.New("h", eng, cost.Alpha400())
	eng.Go("t", func(p *sim.Proc) {
		ctx := k.TaskCtx(p, k.KernelTask)
		m := mbuf.NewCluster(make([]byte, 100))
		if got := ConvertForLegacy(ctx, m); got != m {
			t.Error("plain chains must pass through untouched")
		}
		if k.CategoryTime(kern.CatCopy) != 0 {
			t.Error("pass-through should be free")
		}
	})
	eng.Run()
	eng.KillAll()
}

func TestConvertForLegacyCallsOnConverted(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kern.New("h", eng, cost.Alpha400())
	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	u := &mem.UIO{Buf: space.Alloc(5000, 4)}
	eng.Go("t", func(p *sim.Proc) {
		ctx := k.TaskCtx(p, k.KernelTask)
		var converted *mbuf.Mbuf
		nt := &trackNotifier{}
		hdr := mbuf.NewData(make([]byte, 40))
		hdr.SetNext(mbuf.NewUIO(u, 0, 5000, &mbuf.Hdr{Owner: nt}))
		hdr.MarkPktHdr(5040)
		hdr.SetHdr(&mbuf.Hdr{OnConverted: func(m *mbuf.Mbuf) { converted = m }})
		ConvertForLegacy(ctx, hdr)
		if converted == nil {
			t.Fatal("OnConverted not invoked")
		}
		if mbuf.ChainLen(converted) != 5040 {
			t.Fatalf("converted length %v", mbuf.ChainLen(converted))
		}
		// With OnConverted present the transport owns notification.
		if nt.done != 0 {
			t.Fatalf("owner notified (%v) despite OnConverted", nt.done)
		}
	})
	eng.Run()
	eng.KillAll()
}
