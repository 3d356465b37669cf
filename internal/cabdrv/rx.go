package cabdrv

import (
	"repro/internal/cab"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// hwRx runs in hardware context when the CAB has a packet in network
// memory with its first bytes auto-DMAed to a host buffer; the real work
// happens in interrupt context.
func (d *Driver) hwRx(ev *cab.RxEvent) {
	// Keep the auto-DMA pool topped up.
	d.provideRxBuf()
	d.rxEvents.Put(ev)
	d.K.PostIntr("cab-rx", d.rxIntrNext)
}

// rxIntrQueued is the cab-rx interrupt: it handles the oldest event hwRx
// queued.
func (d *Driver) rxIntrQueued(p *sim.Proc) {
	ev, _ := d.rxEvents.TryGet()
	d.rxIntr(d.K.IntrCtx(p).In("cabdrv_rx"), ev)
	ev.Done()
}

// rxIntr is the receive interrupt handler: it parses the link header from
// the auto-DMA buffer and passes the packet up as either a regular chain
// (small packets, or the legacy personality) or as an auto-DMA head plus
// an M_WCAB descriptor for the body still in network memory.
func (d *Driver) rxIntr(ctx kern.Ctx, ev *cab.RxEvent) {
	ctx.Charge(d.K.Mach.DriverPerPacket, kern.CatDriver)
	d.Stats.RxPackets++
	ev.Span.Enter(obs.StageDeliver)
	ev.Span.CritEv(obs.CauseIntr, obs.EvRxIntr)

	lh, err := wire.ParseLinkHdr(ev.Buf[:wire.LinkHdrLen])
	if err != nil || lh.Type != wire.EtherTypeIP {
		if ev.Pkt != nil {
			ev.Pkt.Free()
		}
		d.heads.Put(ev.Buf)
		return
	}
	// ev.Pkt is nil when the adaptor delivered the frame straight from the
	// auto-DMA buffer under netmem pressure; such frames always fit in the
	// buffer (Len == HdrLen), so they take the small-packet path below.
	pktLen := ev.Len

	if !d.SingleCopy {
		d.rxLegacy(ctx, ev, pktLen)
		return
	}

	if pktLen <= ev.HdrLen {
		// The whole packet fits in the auto-DMA buffer: a regular mbuf —
		// copy avoidance is not worth it for small packets (Section
		// 4.4.3: the auto-DMA buffer size sets the smallest packet for
		// which copy avoidance is used).
		d.Stats.RxSmall++
		if ev.Pkt != nil {
			ev.Pkt.Free()
		}
		rp := d.rxPkts.Get()
		*rp = rxPkt{pktRef: pktRef{d: d}, holds: 1,
			hdr: mbuf.Hdr{HWRxValid: true, HWRxSum: ev.BodySum, Span: ev.Span}}
		m := d.K.Mbufs.AdoptCluster(ev.Buf, wire.LinkHdrLen, pktLen-wire.LinkHdrLen, rp)
		m.MarkPktHdr(pktLen - wire.LinkHdrLen)
		m.SetHdr(&rp.hdr)
		d.Input(ctx, m, d)
		return
	}

	// Large packet: head from the auto-DMA buffer, body as M_WCAB.
	d.Stats.RxLarge++
	base := ev.HdrLen
	rp := d.rxPkts.Get()
	*rp = rxPkt{pktRef: pktRef{d: d, pk: ev.Pkt, gen: ev.Pkt.Gen(), base: base, span: ev.Span}, holds: 2,
		hdr: mbuf.Hdr{HWRxValid: true, HWRxSum: ev.BodySum, Span: ev.Span}}
	rp.Handle, rp.BodySum, rp.Valid = rp, ev.BodySum, pktLen-base

	head := d.K.Mbufs.AdoptCluster(ev.Buf, wire.LinkHdrLen, ev.HdrLen-wire.LinkHdrLen, rp)
	head.MarkPktHdr(pktLen - wire.LinkHdrLen)
	head.SetHdr(&rp.hdr)
	head.SetNext(d.K.Mbufs.NewWCAB(&rp.WCAB, 0, pktLen-base, nil))
	d.Input(ctx, head, d)
}

// rxLegacy implements the unmodified driver's receive: the whole packet is
// DMAed into kernel buffers before the stack sees it, and the hardware
// checksum is ignored (the unmodified stack verifies in software).
func (d *Driver) rxLegacy(ctx kern.Ctx, ev *cab.RxEvent, pktLen units.Size) {
	head := d.K.Mbufs.AdoptCluster(ev.Buf, wire.LinkHdrLen, minSize(pktLen, ev.HdrLen)-wire.LinkHdrLen, &d.heads)
	head.MarkPktHdr(pktLen - wire.LinkHdrLen)
	head.AttachSpan(ev.Span)
	if pktLen <= ev.HdrLen {
		if ev.Pkt != nil {
			ev.Pkt.Free()
		}
		d.Input(ctx, head, d)
		return
	}
	// The rest is DMAed straight into the clusters the stack will get,
	// chained behind the head now and handed up when the DMA is done.
	rest := pktLen - ev.HdrLen
	body := d.legacyRxs.Get()
	*body = legacyRx{d: d, head: head, span: ev.Span, off: ev.HdrLen, n: rest}
	scatter := body.scatter[:0]
	tail := head
	for off := units.Size(0); off < rest; off += mbuf.MCLBYTES {
		c := d.K.Mbufs.AllocCluster(minSize(rest-off, mbuf.MCLBYTES))
		scatter = append(scatter, c.Bytes())
		tail.SetNext(c)
		tail = c
	}
	body.req = cab.SDMAReq{Dir: cab.ToHost, Pkt: ev.Pkt, PktOff: ev.HdrLen, Scatter: scatter,
		Span: ev.Span, Owner: body}
	d.C.SDMA(&body.req)
}

// legacyRx is one packet whose body the legacy personality is DMAing into
// kernel clusters: the chain the stack will get and the request that
// fills it. It goes back to the driver's free list when the DMA ends.
type legacyRx struct {
	d       *Driver
	head    *mbuf.Mbuf
	span    *obs.Span
	off, n  units.Size // the body's range in the packet
	req     cab.SDMAReq
	scatter [5][]byte // a full-MTU body's clusters
}

// SDMADone implements cab.SDMAOwner: the chain is complete; pass it up.
func (b *legacyRx) SDMADone(req *cab.SDMAReq) {
	d := b.d
	d.C.Led.TouchP(b.span, b.off, b.n, ledger.SDMAToHost, ledger.LayerSDMA, 0)
	req.Pkt.Free()
	d.rxBodies.Put(b.head)
	d.legacyRxs.Put(b)
	d.K.PostIntr("cab-rx-dma", d.rxBodyIntr)
}

// SDMAFail implements cab.SDMAOwner: the packet died with the adaptor; the
// stack never sees it and TCP retransmits.
func (b *legacyRx) SDMAFail(*cab.SDMAReq) { b.d.legacyRxs.Put(b) }

// rxBodyQueued is the cab-rx-dma interrupt: it passes up the oldest chain
// whose body DMA finished.
func (d *Driver) rxBodyQueued(p *sim.Proc) {
	head, _ := d.rxBodies.TryGet()
	d.Input(d.K.IntrCtx(p).In("cabdrv_rx"), head, d)
}

func minSize(a, b units.Size) units.Size {
	if a < b {
		return a
	}
	return b
}
