package loop

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestLoopbackDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kern.New("h", eng, cost.Alpha400())
	lo := New(k)
	var rx []*mbuf.Mbuf
	lo.Input = func(ctx kern.Ctx, m *mbuf.Mbuf, from netif.Interface) { rx = append(rx, m) }

	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i * 9)
	}
	eng.Go("tx", func(p *sim.Proc) {
		lo.Output(k.TaskCtx(p, k.KernelTask), mbuf.NewCluster(data), 0)
	})
	eng.Run()
	defer eng.KillAll()
	if len(rx) != 1 {
		t.Fatalf("delivered %d, want 1", len(rx))
	}
	if !bytes.Equal(mbuf.Materialize(rx[0]), data) {
		t.Fatal("loopback corrupted data")
	}
	if lo.TxPackets != 1 {
		t.Fatalf("tx packets = %d", lo.TxPackets)
	}
}

func TestLoopbackConvertsDescriptors(t *testing.T) {
	eng := sim.NewEngine(1)
	k := kern.New("h", eng, cost.Alpha400())
	lo := New(k)
	var rx *mbuf.Mbuf
	lo.Input = func(ctx kern.Ctx, m *mbuf.Mbuf, from netif.Interface) { rx = m }

	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	u := &mem.UIO{Buf: space.Alloc(2000, 4)}
	eng.Go("tx", func(p *sim.Proc) {
		lo.Output(k.TaskCtx(p, k.KernelTask), mbuf.NewUIO(u, 0, 2000, nil), 0)
	})
	eng.Run()
	defer eng.KillAll()
	if rx == nil {
		t.Fatal("nothing delivered")
	}
	if mbuf.HasDescriptors(rx) {
		t.Fatal("descriptor mbufs crossed the loopback")
	}
}

func TestLoopbackCaps(t *testing.T) {
	lo := New(kern.New("h", sim.NewEngine(1), cost.Alpha400()))
	if lo.Caps().SingleCopy {
		t.Fatal("loopback must not advertise single-copy")
	}
	if lo.MTU() != MTU || lo.Name() != "lo0" {
		t.Fatal("bad loopback identity")
	}
}
