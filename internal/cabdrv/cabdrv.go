// Package cabdrv is the CAB device driver. Beyond the traditional output
// and input entry points, it provides the copy-in and copy-out routines the
// single-copy software architecture requires (Section 3): all
// data-touching work the stack performed symbolically on descriptors is
// realized here as SDMA transfers with outboard checksumming.
//
// The driver supports two personalities:
//
//   - SingleCopy (the modified stack): transmit packets may carry M_UIO
//     descriptors, which are gathered straight from (pinned) user pages
//     into network memory with the checksum computed en route; completed
//     packets are reported back to the transport so the socket-buffer
//     range can become M_WCAB. Retransmissions of M_WCAB data use a
//     header-only SDMA overlay that reuses the saved body checksum.
//     Receive delivers the auto-DMAed packet head plus an M_WCAB
//     descriptor for the body, with the hardware checksum attached.
//
//   - Legacy (the unmodified stack): packets are fully materialized kernel
//     buffers; the CAB is used as a plain DMA device and checksums are the
//     stack's (software) problem.
package cabdrv

import (
	"errors"
	"fmt"

	"repro/internal/cab"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// ErrReset is the distinct failure a transfer reports when the adaptor's
// firmware reset wiped it mid-flight: the outboard bytes are gone and the
// operation cannot be completed or retried against the same packet.
var ErrReset = errors.New("cabdrv: adaptor reset during transfer")

// Stats counts driver activity.
type Stats struct {
	TxPackets       int
	RxPackets       int
	TxOverlays      int // header-only retransmissions
	TxFallbackReads int // partial-WCAB retransmissions that re-read outboard data
	TxAbandoned     int // queued packets dropped after their connection tore down
	TxStaleAcked    int // queued retransmissions dropped: data acked (unpinned) in the meantime
	Converted       int // descriptor chains converted at the legacy entry point
	RxSmall         int // packets delivered entirely from the auto-DMA buffer
	RxLarge         int // packets delivered as auto-DMA head + M_WCAB body
	Resets          int // firmware resets handled (rx re-armed, stack notified)
	TxResetKilled   int // transmit SDMAs failed back to their owners by a reset
}

// Driver is one CAB driver instance.
type Driver struct {
	K          *kern.Kernel
	C          *cab.CAB
	Input      netif.InputFunc
	SingleCopy bool
	Stats      Stats

	// ResetNotify, installed by the host plumbing (core.AddHost wires it
	// to the stack's DeviceReset sweep), runs in interrupt context after a
	// firmware reset once receive is re-armed: connections whose
	// retransmit or reassembly state lived on the adaptor must be failed,
	// everything else recovers via retransmission.
	ResetNotify func(kern.Ctx, netif.Interface)

	name string
	mtu  units.Size

	txQ           *sim.Queue[*txJob]
	pendingTxSDMA int
	doneWork      []func(kern.Ctx)
}

type txJob struct {
	m   *mbuf.Mbuf
	dst netif.LinkAddr
}

// outPkt is the WCAB handle for transmit packets resident outboard.
type outPkt struct {
	pk *cab.Packet
	// payloadOff is where user payload starts within the packet (link +
	// IP + transport headers).
	payloadOff units.Size
	// overlays counts header-only retransmissions of this packet. The
	// overlay path reuses the body checksum saved at first transmission;
	// if that sum is bad (checksum-engine fault), every overlay inherits
	// it, so after maxOverlaysPerPacket the driver stops trusting it and
	// degrades to the multi-copy fallback-read path, which re-reads the
	// data and computes a fresh checksum.
	overlays int
}

// maxOverlaysPerPacket bounds header-only retransmissions per outboard
// packet before the driver falls back to re-reading the data.
const maxOverlaysPerPacket = 3

// rxPkt is the WCAB handle for receive packets.
type rxPkt struct {
	pk *cab.Packet
}

// Default geometry: the paper's MTU is 32 KBytes.
const (
	// DefaultMTU is the network-layer MTU, sized so the TCP payload of a
	// full segment is exactly the paper's 32 KByte MTU worth of data.
	DefaultMTU = 32*units.KB + wire.IPHdrLen + wire.TCPHdrLen
	// rxBufCount is how many auto-DMA buffers the driver keeps posted.
	rxBufCount = 64
	// doneBatchLimit bounds how much completion work may accumulate
	// before forcing an interrupt even with SDMAs still pending.
	doneBatchLimit = 8
)

// New attaches a driver to adaptor c with stack input fn.
func New(name string, k *kern.Kernel, c *cab.CAB, singleCopy bool) *Driver {
	d := &Driver{
		K:          k,
		C:          c,
		SingleCopy: singleCopy,
		name:       name,
		mtu:        DefaultMTU,
		txQ:        sim.NewQueue[*txJob](k.Eng),
	}
	for i := 0; i < rxBufCount; i++ {
		c.ProvideRxBuf(make([]byte, c.Cfg.AutoDMALen))
	}
	c.OnRx = d.hwRx
	c.OnReset = d.hwReset
	k.Eng.Go(name+"/txd", d.txd)
	if r := k.Obs; r != nil {
		r.Func("cabdrv.tx_pkts", func() int64 { return int64(d.Stats.TxPackets) })
		r.Func("cabdrv.rx_pkts", func() int64 { return int64(d.Stats.RxPackets) })
		r.Func("cabdrv.tx_overlays", func() int64 { return int64(d.Stats.TxOverlays) })
		r.Func("cabdrv.tx_fallback_reads", func() int64 { return int64(d.Stats.TxFallbackReads) })
		r.Func("cabdrv.legacy_converted", func() int64 { return int64(d.Stats.Converted) })
		r.Func("cabdrv.auto_dma_hits", func() int64 { return int64(d.Stats.RxSmall) })
		r.Func("cabdrv.wcab_rx", func() int64 { return int64(d.Stats.RxLarge) })
		r.Func("cabdrv.resets", func() int64 { return int64(d.Stats.Resets) })
		r.Func("cabdrv.tx_reset_killed", func() int64 { return int64(d.Stats.TxResetKilled) })
	}
	return d
}

// hwReset runs in hardware context after the CAB wiped itself. Every
// queued descriptor was already killed (their Fail hooks ran), so the
// driver's remaining duties are re-arming the auto-DMA receive pool —
// without it, surviving connections could never hear another segment —
// and handing the event to the stack in interrupt context so it can fail
// the connections whose state died with the adaptor.
func (d *Driver) hwReset() {
	d.Stats.Resets++
	for i := 0; i < rxBufCount; i++ {
		d.C.ProvideRxBuf(make([]byte, d.C.Cfg.AutoDMALen))
	}
	d.K.PostIntr("cab-reset", func(p *sim.Proc) {
		ctx := d.K.IntrCtx(p).In("cabdrv_reset")
		if d.ResetNotify != nil {
			d.ResetNotify(ctx, d)
		}
	})
}

// Name implements netif.Interface.
func (d *Driver) Name() string { return d.name }

// MTU implements netif.Interface.
func (d *Driver) MTU() units.Size { return d.mtu }

// SetMTU overrides the network-layer MTU (test configurations).
func (d *Driver) SetMTU(m units.Size) { d.mtu = m }

// Caps implements netif.Interface.
func (d *Driver) Caps() netif.Caps { return netif.Caps{SingleCopy: d.SingleCopy} }

// hdrFlow extracts the flow tag the transport stamped on the packet header
// (0: unattributed control traffic).
func hdrFlow(h *mbuf.Hdr) int {
	if h == nil {
		return 0
	}
	return h.Flow
}

// AdmitTx implements netif.Admitter: transports call it (in process
// context, above the transmit daemon) before committing n payload bytes to
// the send path, so the netmem arbiter can throttle over-share flows
// without wedging the shared daemon. Without an arbiter it admits
// unconditionally.
func (d *Driver) AdmitTx(p *sim.Proc, flow int, n units.Size) {
	if d.C.Arb == nil {
		return
	}
	d.C.Arb.AdmitTx(p, flow, wire.LinkHdrLen+n)
}

// Output implements netif.Interface: it queues the packet for the transmit
// daemon, converting descriptor chains first when running as a legacy
// driver.
func (d *Driver) Output(ctx kern.Ctx, m *mbuf.Mbuf, dst netif.LinkAddr) {
	ctx = ctx.In("cabdrv")
	ctx.Charge(d.K.Mach.DriverPerPacket, kern.CatDriver)
	if m.IsPktHdr() && mbuf.ChainLen(m) != m.PktLen() {
		panic(fmt.Sprintf("cabdrv: packet length %v does not match header %v (types %v)",
			mbuf.ChainLen(m), m.PktLen(), mbuf.Types(m)))
	}
	if !d.SingleCopy && mbuf.HasDescriptors(m) {
		d.Stats.Converted++
		m = netif.ConvertForLegacy(ctx, m)
	}
	m.Span().CritEv(obs.CauseCPU, "txq_put")
	d.txQ.Put(&txJob{m: m, dst: dst})
}

// txd is the transmit daemon: it forms complete packets in network memory
// (the CAB requires fully formed, page-aligned packets, Section 2.2) and
// starts media transmission as each SDMA completes.
func (d *Driver) txd(p *sim.Proc) {
	for {
		job := d.txQ.Get(p)
		job.m.Span().CritEv(obs.CauseQueue, "txq_get")
		if d.SingleCopy {
			d.sendSingleCopy(p, job)
		} else {
			d.sendLegacy(p, job)
		}
	}
}

// sendSingleCopy transmits a (possibly descriptor-bearing) packet.
func (d *Driver) sendSingleCopy(p *sim.Proc, job *txJob) {
	m := job.m
	hdrH := m.Hdr()
	if txAbandoned(m) || txDead(m) {
		d.dropAbandoned(job, nil)
		return
	}
	if txStale(m) {
		d.dropStale(job, nil)
		return
	}

	if op, prefixLen, ok := d.overlayCandidate(m); ok {
		d.sendOverlay(job, op, prefixLen)
		return
	}

	ipLen := mbuf.ChainLen(m)
	pktLen := wire.LinkHdrLen + ipLen
	t0 := d.K.Eng.Now()
	pk := d.C.AllocPacketWaitFlow(p, pktLen, hdrFlow(hdrH))
	if d.K.Eng.Now() > t0 {
		// The allocation blocked on network memory (or its arbiter).
		m.Span().CritEv(obs.CauseNetmem, "netmem_tx")
	}
	// The allocation may have blocked; the connection can tear down (or a
	// firmware reset can wipe referenced outboard packets) in the meantime.
	if txAbandoned(m) || txDead(m) {
		d.dropAbandoned(job, pk)
		return
	}
	// Likewise, an ACK can land while the job queued or the allocation
	// blocked: a retransmission whose data was acknowledged (and unpinned)
	// must not reach the DMA engine.
	if txStale(m) {
		d.dropStale(job, pk)
		return
	}

	lh := make([]byte, wire.LinkHdrLen)
	wire.LinkHdr{
		Dst: uint32(job.dst), Src: uint32(d.C.NodeID()),
		Type: wire.EtherTypeIP, Len: uint32(pktLen),
	}.Marshal(lh)

	gather := [][]byte{lh}
	pkOff := units.Size(wire.LinkHdrLen)
	for cur := m; cur != nil; cur = cur.Next() {
		switch cur.Type() {
		case mbuf.TData, mbuf.TCluster:
			gather = append(gather, cur.Bytes())
		case mbuf.TUIO:
			u := cur.UIO()
			for _, seg := range u.Segments(cur.Off(), cur.Len()) {
				if !u.Space.Pinned(seg.Addr, seg.Len) {
					panic(fmt.Sprintf("cabdrv: DMA from unpinned user pages [%v,+%v)", seg.Addr, seg.Len))
				}
				gather = append(gather, u.Space.Bytes(seg.Addr, seg.Len))
			}
		case mbuf.TWCAB:
			// Partial retransmission of outboard data whose boundaries
			// shifted (e.g. after a partial ACK): read it back. Rare.
			w := cur.WCABRef()
			d.Stats.TxFallbackReads++
			b := make([]byte, cur.Len())
			copy(b, w.ReadFn(cur.Off(), cur.Len()))
			d.K.Led.TouchP(m.Span(), pkOff, cur.Len(), ledger.CPUCopy, "cabdrv", 0)
			gather = append(gather, b)
		}
		pkOff += cur.Len()
	}

	req := &cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: gather, Span: m.Span()}
	if hdrH != nil && hdrH.NeedCsum {
		req.Csum = true
		req.CsumOff = wire.LinkHdrLen + wire.IPHdrLen + hdrH.CsumOff
		req.CsumSkip = wire.LinkHdrLen + wire.IPHdrLen + hdrH.CsumSkip
	}
	d.pendingTxSDMA++
	req.Done = func(*cab.SDMAReq) { d.txSDMADone(job, pk, hdrH) }
	req.Fail = func(*cab.SDMAReq) { d.txSDMAFail(job, hdrH) }
	m.Span().Enter(obs.StageSDMA)
	d.C.SDMA(req)
}

// txSDMADone runs in hardware context when a transmit packet is fully
// formed outboard: media transmission starts immediately (the TCP window
// was checked before the packet was cut, Section 2.2), and the host-side
// completion work is batched for the next interrupt.
func (d *Driver) txSDMADone(job *txJob, pk *cab.Packet, hdrH *mbuf.Hdr) {
	d.Stats.TxPackets++
	// Ownership of the outboard packet: the transport takes it (as
	// retransmittable M_WCAB state) only when it asked for the conversion
	// via OnOutboard. Everything else — control segments, UDP datagrams,
	// raw sends — is freed once the frame has left the adaptor.
	transportOwns := hdrH != nil && hdrH.NeedCsum && hdrH.OnOutboard != nil &&
		!hdrH.FreeAfterSend
	var mdmaDone func()
	if !transportOwns {
		mdmaDone = func() { pk.Free() }
	}
	sp := job.m.Span()
	sp.Enter(obs.StageWire)
	d.C.MDMATx(pk, hippi.NodeID(job.dst), sp, mdmaDone)

	m := job.m
	d.completeTx(func(ctx kern.Ctx) {
		if transportOwns {
			payloadOff := wire.LinkHdrLen + wire.IPHdrLen + hdrH.CsumSkip
			w := &mbuf.WCAB{
				Handle:  &outPkt{pk: pk, payloadOff: payloadOff},
				BodySum: pk.BodySum,
				Valid:   pk.Len() - payloadOff,
				ReadFn: func(off, n units.Size) []byte {
					return pk.Bytes()[payloadOff+off : payloadOff+off+n]
				},
				FreeFn: func() { pk.Free() },
				Dead:   func() bool { return pk.Zapped() },
			}
			hdrH.OnOutboard(w)
		} else {
			// No transport callback (UDP, raw): notify the displaced
			// descriptor owners directly — their bytes are outboard.
			for cur := m; cur != nil; cur = cur.Next() {
				if cur.Type() == mbuf.TUIO {
					if ch := cur.Hdr(); ch != nil && ch.Owner != nil {
						ch.Owner.DMADone(cur.Len())
					}
				}
			}
		}
		mbuf.FreeChain(m)
	})
}

// txSDMAFail runs in hardware context when a firmware reset kills a
// transmit SDMA: the packet never formed outboard and cannot be sent. For
// sends the transport does not own (UDP, raw) the displaced descriptor
// owners are notified so blocked writers unwedge; transport-owned sends
// are resolved by the stack's device-reset sweep, which tears the
// connection down and releases its send buffer (notifying here too would
// double-release the writer's DMA tracker).
func (d *Driver) txSDMAFail(job *txJob, hdrH *mbuf.Hdr) {
	d.Stats.TxResetKilled++
	transportOwns := hdrH != nil && hdrH.NeedCsum && hdrH.OnOutboard != nil &&
		!hdrH.FreeAfterSend
	m := job.m
	d.completeTx(func(kern.Ctx) {
		if !transportOwns {
			for cur := m; cur != nil; cur = cur.Next() {
				if cur.Type() == mbuf.TUIO {
					if ch := cur.Hdr(); ch != nil && ch.Owner != nil {
						ch.Owner.DMADone(cur.Len())
					}
				}
			}
		}
		mbuf.FreeChain(m)
	})
}

// txAbandoned reports whether any descriptor in the chain was released by
// a connection teardown while the packet waited in the transmit queue (the
// queued copies share the send buffer's headers).
func txAbandoned(m *mbuf.Mbuf) bool {
	for cur := m; cur != nil; cur = cur.Next() {
		if cur.Type() == mbuf.TUIO {
			if h := cur.Hdr(); h != nil && h.Abandoned {
				return true
			}
		}
	}
	return false
}

// txDead reports whether the chain references outboard data wiped by a
// firmware reset — such a packet can never be reconstructed from the
// descriptor (the bytes existed only in network memory), so the job is
// dropped and the stack's device-reset sweep resolves the connection.
func txDead(m *mbuf.Mbuf) bool {
	for cur := m; cur != nil; cur = cur.Next() {
		if cur.Type() == mbuf.TWCAB {
			w := cur.WCABRef()
			if w.Dead != nil && w.Dead() {
				return true
			}
		}
	}
	return false
}

// dropAbandoned discards a transmit job whose connection tore down before
// the DMA was issued; its user pages are no longer pinned.
func (d *Driver) dropAbandoned(job *txJob, pk *cab.Packet) {
	d.Stats.TxAbandoned++
	if pk != nil {
		pk.Free()
	}
	mbuf.FreeChain(job.m)
}

// txStale reports whether the chain references user pages that are no
// longer pinned: the segment's data was acknowledged — and its pages
// released — while the job sat in the transmit queue (a retransmission
// that lost its race with the ACK, seen under fabric-scale RTTs).
func txStale(m *mbuf.Mbuf) bool {
	for cur := m; cur != nil; cur = cur.Next() {
		if cur.Type() != mbuf.TUIO {
			continue
		}
		u := cur.UIO()
		for _, seg := range u.Segments(cur.Off(), cur.Len()) {
			if !u.Space.Pinned(seg.Addr, seg.Len) {
				return true
			}
		}
	}
	return false
}

// dropStale discards a transmit job made redundant by an ACK that
// arrived while it was queued.
func (d *Driver) dropStale(job *txJob, pk *cab.Packet) {
	d.Stats.TxStaleAcked++
	if pk != nil {
		pk.Free()
	}
	mbuf.FreeChain(job.m)
}

// sendOverlay retransmits an outboard packet by DMAing only the fresh
// headers over the old ones; the checksum engine combines the new seed
// with the body checksum it saved on the first transmission (Section 4.3).
func (d *Driver) sendOverlay(job *txJob, op *outPkt, prefixLen units.Size) {
	m := job.m
	hdrH := m.Hdr()
	d.Stats.TxOverlays++
	op.overlays++

	hb := make([]byte, prefixLen)
	mbuf.ReadRange(m, 0, prefixLen, hb)
	lh := make([]byte, wire.LinkHdrLen)
	wire.LinkHdr{
		Dst: uint32(job.dst), Src: uint32(d.C.NodeID()),
		Type: wire.EtherTypeIP, Len: uint32(op.pk.Len()),
	}.Marshal(lh)

	req := &cab.SDMAReq{
		Dir: cab.ToCAB, Pkt: op.pk,
		Gather:     [][]byte{lh, hb},
		HeaderOnly: true,
		Span:       m.Span(),
	}
	if hdrH != nil && hdrH.NeedCsum {
		req.Csum = true
		req.CsumOff = wire.LinkHdrLen + wire.IPHdrLen + hdrH.CsumOff
		req.CsumSkip = wire.LinkHdrLen + wire.IPHdrLen + hdrH.CsumSkip
	}
	d.pendingTxSDMA++
	req.Done = func(*cab.SDMAReq) {
		d.Stats.TxPackets++
		sp := m.Span()
		sp.Enter(obs.StageWire)
		d.C.MDMATx(op.pk, hippi.NodeID(job.dst), sp, nil)
		d.completeTx(func(kern.Ctx) { mbuf.FreeChain(m) })
	}
	req.Fail = func(*cab.SDMAReq) {
		// The reset wiped the outboard packet under the overlay; the
		// connection owning it is resolved by the device-reset sweep.
		d.Stats.TxResetKilled++
		d.completeTx(func(kern.Ctx) { mbuf.FreeChain(m) })
	}
	m.Span().Enter(obs.StageSDMA)
	d.C.SDMA(req)
}

// overlayCandidate reports whether packet m is a retransmission whose
// entire payload is one of our outboard packets, unshifted — the
// header-only fast path.
func (d *Driver) overlayCandidate(m *mbuf.Mbuf) (*outPkt, units.Size, bool) {
	prefixLen := units.Size(0)
	cur := m
	for cur != nil && !cur.Type().IsDescriptor() {
		prefixLen += cur.Len()
		cur = cur.Next()
	}
	if cur == nil || cur.Type() != mbuf.TWCAB || cur.Next() != nil {
		return nil, 0, false
	}
	w := cur.WCABRef()
	op, ok := w.Handle.(*outPkt)
	if !ok || op.pk.Freed() || op.pk.Owner() != d.C {
		return nil, 0, false
	}
	if op.overlays >= maxOverlaysPerPacket {
		return nil, 0, false
	}
	if cur.Off() != 0 || cur.Len() != w.Valid {
		return nil, 0, false
	}
	if prefixLen+wire.LinkHdrLen != op.payloadOff {
		return nil, 0, false
	}
	return op, prefixLen, true
}

// sendLegacy transmits a fully materialized kernel-buffer packet, using
// the CAB as a plain DMA device (the unmodified stack's path). The
// outboard packet is freed after the media send: retransmission state
// lives in the kernel socket buffers.
func (d *Driver) sendLegacy(p *sim.Proc, job *txJob) {
	m := job.m
	ipLen := mbuf.ChainLen(m)
	pktLen := wire.LinkHdrLen + ipLen
	t0 := d.K.Eng.Now()
	pk := d.C.AllocPacketWaitFlow(p, pktLen, hdrFlow(m.Hdr()))
	if d.K.Eng.Now() > t0 {
		m.Span().CritEv(obs.CauseNetmem, "netmem_tx")
	}

	lh := make([]byte, wire.LinkHdrLen)
	wire.LinkHdr{
		Dst: uint32(job.dst), Src: uint32(d.C.NodeID()),
		Type: wire.EtherTypeIP, Len: uint32(pktLen),
	}.Marshal(lh)
	gather := [][]byte{lh}
	for cur := m; cur != nil; cur = cur.Next() {
		gather = append(gather, cur.Bytes())
	}
	d.pendingTxSDMA++
	m.Span().Enter(obs.StageSDMA)
	d.C.SDMA(&cab.SDMAReq{
		Dir: cab.ToCAB, Pkt: pk, Gather: gather, Span: m.Span(),
		Done: func(*cab.SDMAReq) {
			d.Stats.TxPackets++
			sp := m.Span()
			sp.Enter(obs.StageWire)
			d.C.MDMATx(pk, hippi.NodeID(job.dst), sp, func() { pk.Free() })
			d.completeTx(func(kern.Ctx) { mbuf.FreeChain(m) })
		},
		Fail: func(*cab.SDMAReq) {
			// The frame is lost with the reset; the data still lives in
			// kernel socket buffers, so TCP recovers via retransmission.
			d.Stats.TxResetKilled++
			d.completeTx(func(kern.Ctx) { mbuf.FreeChain(m) })
		},
	})
}

// completeTx batches host-side completion work, raising one interrupt when
// the SDMA engine drains (or the batch grows large) — the paper's "only
// the final packet's SDMA request needs to be flagged to interrupt the
// host" discipline (Section 2.2).
func (d *Driver) completeTx(work func(kern.Ctx)) {
	d.doneWork = append(d.doneWork, work)
	d.pendingTxSDMA--
	if d.pendingTxSDMA == 0 || len(d.doneWork) >= doneBatchLimit {
		list := d.doneWork
		d.doneWork = nil
		d.K.PostIntr("cab-tx-done", func(p *sim.Proc) {
			ctx := d.K.IntrCtx(p).In("cabdrv_txdone")
			for _, w := range list {
				w(ctx)
			}
		})
	}
}
