// Package ethdev is a driver for a traditional network device with no
// outboard buffering or checksumming support — the "existing devices" of
// Section 5. It only handles fully materialized kernel-buffer chains;
// descriptor mbufs reaching its entry point are converted by the thin shim
// layer, and received packets always arrive as regular mbufs, which the
// modified stack still handles unchanged.
package ethdev

import (
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// DefaultMTU is a classic Ethernet-class MTU.
const DefaultMTU = 1500 * units.Byte

// Driver is one legacy device instance. The media is modeled by the same
// switch fabric as HIPPI, just slower.
type Driver struct {
	K     *kern.Kernel
	Input netif.InputFunc

	name string
	mtu  units.Size
	net  *hippi.Network
	id   hippi.NodeID
	txQ  *sim.Queue[*txJob]

	// Stats.
	TxPackets, RxPackets, Converted int
	// RxDropNoBuf counts frames lost to receive-buffer exhaustion (the
	// kernel allocation-fault surface; the transport recovers by
	// retransmission).
	RxDropNoBuf int
}

type txJob struct {
	m   *mbuf.Mbuf
	dst netif.LinkAddr
}

// New attaches a legacy driver to medium net as station id.
func New(name string, k *kern.Kernel, net *hippi.Network, id hippi.NodeID, mtu units.Size) *Driver {
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	d := &Driver{K: k, name: name, mtu: mtu, net: net, id: id,
		txQ: sim.NewQueue[*txJob](k.Eng)}
	net.Attach(id, d.hwRx)
	k.Eng.Go(name+"/txd", d.txd)
	return d
}

// Name implements netif.Interface.
func (d *Driver) Name() string { return d.name }

// MTU implements netif.Interface.
func (d *Driver) MTU() units.Size { return d.mtu }

// Caps implements netif.Interface: no single-copy support.
func (d *Driver) Caps() netif.Caps { return netif.Caps{} }

// Output implements netif.Interface. Descriptor chains are materialized at
// the entry point (Section 5): "a copy has merely been delayed".
func (d *Driver) Output(ctx kern.Ctx, m *mbuf.Mbuf, dst netif.LinkAddr) {
	ctx = ctx.In("ethdrv")
	ctx.Charge(d.K.Mach.DriverPerPacket, kern.CatDriver)
	if mbuf.HasDescriptors(m) {
		d.Converted++
		m = netif.ConvertForLegacy(ctx, m)
	}
	d.txQ.Put(&txJob{m: m, dst: dst})
}

// txd serializes packets onto the medium, paying bus DMA time to move the
// kernel buffers to the device.
func (d *Driver) txd(p *sim.Proc) {
	for {
		job := d.txQ.Get(p)
		ipLen := mbuf.ChainLen(job.m)
		frame := make([]byte, wire.LinkHdrLen+ipLen)
		wire.LinkHdr{
			Dst: uint32(job.dst), Src: uint32(d.id),
			Type: wire.EtherTypeIP, Len: uint32(len(frame)),
		}.Marshal(frame)
		mbuf.ReadRange(job.m, 0, ipLen, frame[wire.LinkHdrLen:])
		// The frame leaves the CAB data path: its span goes on for the
		// ledger only (see obs.Span.DropTrace).
		sp := job.m.Span()
		sp.DropTrace()
		mbuf.FreeChain(job.m)
		// Device DMA from kernel buffers occupies the bus.
		p.Sleep(d.K.Mach.DMATime(units.Size(len(frame))))
		d.K.Led.TouchP(sp, 0, units.Size(len(frame)), ledger.SDMAToNet, ledger.LayerEthdev, 0)
		sent := sim.NewSignal(d.K.Eng)
		d.net.SendFrame(hippi.Frame{Src: d.id, Dst: hippi.NodeID(job.dst), Data: frame, Span: sp},
			func() { sent.Broadcast() })
		sent.Wait(p)
		d.TxPackets++
	}
}

// hwRx runs at frame arrival: the device has DMAed the frame into kernel
// buffers; the interrupt handler builds a regular mbuf chain.
func (d *Driver) hwRx(f hippi.Frame) {
	d.K.PostIntr("eth-rx", func(p *sim.Proc) {
		ctx := d.K.IntrCtx(p).In("ethdrv_rx")
		ctx.Charge(d.K.Mach.DriverPerPacket, kern.CatDriver)
		lh, err := wire.ParseLinkHdr(f.Data)
		if err != nil || lh.Type != wire.EtherTypeIP {
			return
		}
		if d.K.AllocFault != nil && d.K.AllocFault() {
			// No kernel buffers for the frame: the device ring overruns.
			// Interrupt context cannot back off and retry the way the
			// socket layer does; the frame is lost and TCP recovers.
			d.RxDropNoBuf++
			return
		}
		d.RxPackets++
		payload := f.Data[wire.LinkHdrLen:]
		var head, tail *mbuf.Mbuf
		for off := 0; off < len(payload); off += int(mbuf.MCLBYTES) {
			n := len(payload) - off
			if n > int(mbuf.MCLBYTES) {
				n = int(mbuf.MCLBYTES)
			}
			c := d.K.Mbufs.NewCluster(payload[off : off+n])
			if head == nil {
				head = c
			} else {
				tail.SetNext(c)
			}
			tail = c
		}
		if head == nil {
			return
		}
		head.MarkPktHdr(units.Size(len(payload)))
		// The device DMAed the frame into the kernel buffers just built.
		f.Span.DropTrace()
		d.K.Led.TouchP(f.Span, 0, units.Size(len(f.Data)), ledger.SDMAToHost, ledger.LayerEthdev, 0)
		head.AttachSpan(f.Span)
		d.Input(ctx, head, d)
	})
}
