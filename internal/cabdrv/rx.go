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
	d.C.ProvideRxBuf(make([]byte, d.C.Cfg.AutoDMALen))
	d.K.PostIntr("cab-rx", func(p *sim.Proc) { d.rxIntr(d.K.IntrCtx(p).In("cabdrv_rx"), ev) })
}

// rxIntr is the receive interrupt handler: it parses the link header from
// the auto-DMA buffer and passes the packet up as either a regular chain
// (small packets, or the legacy personality) or as an auto-DMA head plus
// an M_WCAB descriptor for the body still in network memory.
func (d *Driver) rxIntr(ctx kern.Ctx, ev *cab.RxEvent) {
	ctx.Charge(d.K.Mach.DriverPerPacket, kern.CatDriver)
	d.Stats.RxPackets++
	ev.Span.Enter(obs.StageDeliver)
	ev.Span.CritEv(obs.CauseIntr, "rx_intr")

	lh, err := wire.ParseLinkHdr(ev.Buf[:wire.LinkHdrLen])
	if err != nil || lh.Type != wire.EtherTypeIP {
		if ev.Pkt != nil {
			ev.Pkt.Free()
		}
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
		m := mbuf.AdoptCluster(ev.Buf, wire.LinkHdrLen, pktLen-wire.LinkHdrLen)
		m.MarkPktHdr(pktLen - wire.LinkHdrLen)
		m.SetHdr(&mbuf.Hdr{HWRxValid: true, HWRxSum: ev.BodySum, Span: ev.Span})
		if ev.Pkt != nil {
			ev.Pkt.Free()
		}
		d.Input(ctx, m, d)
		return
	}

	// Large packet: head from the auto-DMA buffer, body as M_WCAB.
	d.Stats.RxLarge++
	pk := ev.Pkt
	base := ev.HdrLen
	w := &mbuf.WCAB{
		Handle:  &rxPkt{pk: pk},
		BodySum: ev.BodySum,
		Valid:   pktLen - base,
		ReadFn: func(off, n units.Size) []byte {
			return pk.Bytes()[base+off : base+off+n]
		},
		FreeFn: func() { pk.Free() },
		Dead:   func() bool { return pk.Zapped() },
	}
	// The copy-out carries no span: the socket's read_dma causal event
	// covers it, so it records no sdma_start/sdma_done of its own.
	w.CopyOut = func(off, n units.Size, dst [][]byte, done func(error)) {
		d.C.SDMA(&cab.SDMAReq{
			Dir: cab.ToHost, Pkt: pk,
			PktOff:  base + off,
			Scatter: dst,
			Done: func(*cab.SDMAReq) {
				d.C.Led.TouchP(ev.Span, base+off, n, ledger.SDMAToHost, "sdma", 0)
				done(nil)
			},
			Fail: func(*cab.SDMAReq) { done(ErrReset) },
		})
	}

	head := mbuf.AdoptCluster(ev.Buf, wire.LinkHdrLen, ev.HdrLen-wire.LinkHdrLen)
	head.MarkPktHdr(pktLen - wire.LinkHdrLen)
	head.SetHdr(&mbuf.Hdr{HWRxValid: true, HWRxSum: ev.BodySum, Span: ev.Span})
	head.SetNext(mbuf.NewWCAB(w, 0, pktLen-base, nil))
	d.Input(ctx, head, d)
}

// rxLegacy implements the unmodified driver's receive: the whole packet is
// DMAed into kernel buffers before the stack sees it, and the hardware
// checksum is ignored (the unmodified stack verifies in software).
func (d *Driver) rxLegacy(ctx kern.Ctx, ev *cab.RxEvent, pktLen units.Size) {
	head := mbuf.AdoptCluster(ev.Buf, wire.LinkHdrLen, minSize(pktLen, ev.HdrLen)-wire.LinkHdrLen)
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
	scatter := make([][]byte, 0, (rest+mbuf.MCLBYTES-1)/mbuf.MCLBYTES)
	tail := head
	for off := units.Size(0); off < rest; off += mbuf.MCLBYTES {
		c := mbuf.AllocCluster(minSize(rest-off, mbuf.MCLBYTES))
		scatter = append(scatter, c.Bytes())
		tail.SetNext(c)
		tail = c
	}
	pk := ev.Pkt
	d.C.SDMA(&cab.SDMAReq{
		Dir: cab.ToHost, Pkt: pk,
		PktOff:  ev.HdrLen,
		Scatter: scatter,
		Span:    ev.Span,
		Done: func(*cab.SDMAReq) {
			d.C.Led.TouchP(ev.Span, ev.HdrLen, rest, ledger.SDMAToHost, "sdma", 0)
			pk.Free()
			d.K.PostIntr("cab-rx-dma", func(p *sim.Proc) {
				d.Input(d.K.IntrCtx(p).In("cabdrv_rx"), head, d)
			})
		},
	})
}

func minSize(a, b units.Size) units.Size {
	if a < b {
		return a
	}
	return b
}
