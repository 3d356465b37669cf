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
//
// Both personalities transmit through one path (send): a legacy chain is
// materialized at Output, so every descriptor check passes it through.
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
	"repro/internal/pool"
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

	// Transmit completions (completeTx): finished jobs wait in txDone in
	// completion order, and each posted cab-tx-done interrupt drains the
	// count recorded with it in txBatches. Both rings belong to the driver
	// and are reused for its lifetime; txBatchLen counts the jobs of the
	// batch not yet posted.
	txDone     *sim.Queue[*txJob]
	txBatches  *sim.Queue[int]
	txBatchLen int

	// Receive work handed to interrupt context, one entry per posted
	// interrupt, drained in posting order: adaptor events (cab-rx) and
	// legacy packets whose body DMA finished (cab-rx-dma).
	rxEvents *sim.Queue[*cab.RxEvent]
	rxBodies *sim.Queue[*mbuf.Mbuf]

	// The driver's free lists (see internal/pool): per-packet transmit
	// jobs, outboard handles, copy-out requests and legacy receive bodies,
	// and the auto-DMA head buffers posted to the adaptor.
	txJobs    pool.List[txJob]
	outPkts   pool.List[outPkt]
	rxPkts    pool.List[rxPkt]
	copyReqs  pool.List[copyReq]
	legacyRxs pool.List[legacyRx]
	heads     heads

	// The interrupt handlers, bound once.
	txDoneIntr, rxIntrNext, rxBodyIntr func(*sim.Proc)
}

// txJob is one packet on its way out, built once by Output: the chain, its
// link destination, and the SDMA request that forms the packet outboard
// together with what the request points at — the link header and the
// gather list — so forming, sending and completing the packet allocate
// nothing more. The job is the request's owner. It comes from the driver's
// free list and goes back where the chain is freed: finishTx, or a drop.
type txJob struct {
	d   *Driver
	m   *mbuf.Mbuf
	dst netif.LinkAddr

	req    cab.SDMAReq
	lh     [wire.LinkHdrLen]byte
	gather [txGatherRoom][]byte
	// ovHdr holds a header-only retransmission's network and transport
	// headers (overlay is then the packet they overlay).
	ovHdr   [ovHdrRoom]byte
	overlay *outPkt
	// failed records that a firmware reset killed the request.
	failed bool
}

const (
	// txGatherRoom covers the link header, the chain's header mbuf and a
	// one-segment payload on the single-copy path, and a full-MTU chain of
	// kernel clusters on the legacy path.
	txGatherRoom = 8
	// ovHdrRoom covers the IP and TCP headers an overlay rewrites.
	ovHdrRoom = wire.IPHdrLen + wire.TCPHdrLen
)

// pktRef is what the driver's two outboard handles share: one of its
// adaptor's packets, and where byte 0 of the WCAB embedded here sits in
// it. It implements mbuf.Outboard. A handle goes back to the driver's
// free list with its packet, when the last mbuf reference drops (an rxPkt
// also waits for its head buffer).
type pktRef struct {
	mbuf.WCAB
	d    *Driver
	pk   *cab.Packet
	gen  uint32 // pk's generation when the handle was made
	base units.Size
	// span attributes copy-outs in the ledger (nil for transmit packets,
	// which are never copied out).
	span *obs.Span
}

// Read implements mbuf.Outboard.
func (r *pktRef) Read(off, n units.Size) []byte {
	return r.pk.Bytes()[r.base+off : r.base+off+n]
}

// Dead implements mbuf.Outboard.
func (r *pktRef) Dead() bool { return r.pk.Zapped() }

// CopyOut implements mbuf.Outboard with a ToHost SDMA. The request comes
// from the driver's free list: one packet may have several copy-outs in
// flight (a read that takes it in two pieces), so it cannot live in the
// packet.
func (r *pktRef) CopyOut(off, n units.Size, dst [][]byte, to mbuf.CopyNotifier) {
	cr := r.d.copyReqs.Get()
	cr.d, cr.span, cr.off, cr.n, cr.to = r.d, r.span, r.base+off, n, to
	// The copy-out carries no span: the socket's read_dma causal event
	// covers it, so it records no sdma_start/sdma_done of its own.
	cr.req = cab.SDMAReq{Dir: cab.ToHost, Pkt: r.pk, PktOff: r.base + off,
		Scatter: append(cr.scatter[:0], dst...), Owner: cr}
	r.d.C.SDMA(&cr.req)
}

// outPkt is the WCAB handle for transmit packets resident outboard; byte 0
// is where user payload starts (past the link, IP and transport headers).
type outPkt struct {
	pktRef
	// overlays counts header-only retransmissions of this packet. The
	// overlay path reuses the body checksum saved at first transmission;
	// if that sum is bad (checksum-engine fault), every overlay inherits
	// it, so after maxOverlaysPerPacket the driver stops trusting it and
	// degrades to the multi-copy fallback-read path, which re-reads the
	// data and computes a fresh checksum.
	overlays int
}

// Free implements mbuf.Outboard.
func (op *outPkt) Free() {
	op.pk.Free()
	op.d.outPkts.Put(op)
}

// maxOverlaysPerPacket bounds header-only retransmissions per outboard
// packet before the driver falls back to re-reading the data.
const maxOverlaysPerPacket = 3

// rxPkt is the WCAB handle for a received packet's body (byte 0 is the
// first byte past the auto-DMA head), built together with the packet
// header of the head mbuf passed up beside it. The head's auto-DMA buffer
// comes home here too: the record is released once both the body (Free)
// and the head (Release) are gone, since the head mbuf and its copies
// point at hdr. A small packet's rxPkt holds only the head.
type rxPkt struct {
	pktRef
	hdr   mbuf.Hdr
	holds int
}

// Free implements mbuf.Outboard.
func (rp *rxPkt) Free() {
	rp.pk.Free()
	rp.drop()
}

// Release implements mbuf.Home: the head buffer goes back on the driver's
// list.
func (rp *rxPkt) Release(b []byte) {
	rp.d.heads.Put(b)
	rp.drop()
}

func (rp *rxPkt) drop() {
	if rp.holds--; rp.holds == 0 {
		rp.d.rxPkts.Put(rp)
	}
}

// heads is the free list of auto-DMA head buffers; it is the home of the
// buffers the legacy personality adopts.
type heads struct{ pool.Bytes }

// Release implements mbuf.Home.
func (h *heads) Release(b []byte) { h.Put(b) }

// provideRxBuf posts one auto-DMA buffer to the adaptor.
func (d *Driver) provideRxBuf() {
	d.C.ProvideRxBuf(d.heads.Get(int(d.C.Cfg.AutoDMALen)))
}

// CheckPools puts the driver's free lists in check mode (tests; see
// internal/pool).
func (d *Driver) CheckPools() {
	d.txJobs.Check(nil)
	d.outPkts.Check(nil)
	d.rxPkts.Check(nil)
	d.copyReqs.Check(nil)
	d.legacyRxs.Check(nil)
	d.heads.Check()
}

// copyReq is one copy-out in flight: a ToHost SDMA out of an outboard
// packet on behalf of whoever called CopyOut. Requests are recycled
// through the driver's free list as soon as their owner has been told the
// outcome.
type copyReq struct {
	req     cab.SDMAReq
	d       *Driver
	span    *obs.Span
	off, n  units.Size // the range in packet coordinates
	to      mbuf.CopyNotifier
	scatter [2][]byte
}

// SDMADone implements cab.SDMAOwner.
func (r *copyReq) SDMADone(*cab.SDMAReq) {
	r.d.C.Led.TouchP(r.span, r.off, r.n, ledger.SDMAToHost, ledger.LayerSDMA, 0)
	r.d.endCopy(r, nil)
}

// SDMAFail implements cab.SDMAOwner.
func (r *copyReq) SDMAFail(*cab.SDMAReq) { r.d.endCopy(r, ErrReset) }

// endCopy releases r and then tells its requester how the copy ended.
func (d *Driver) endCopy(r *copyReq, err error) {
	to, n := r.to, r.n
	d.copyReqs.Put(r)
	to.CopyDone(n, err)
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
		txDone:     sim.NewQueue[*txJob](k.Eng),
		txBatches:  sim.NewQueue[int](k.Eng),
		rxEvents:   sim.NewQueue[*cab.RxEvent](k.Eng),
		rxBodies:   sim.NewQueue[*mbuf.Mbuf](k.Eng),
	}
	d.txDoneIntr = d.finishTxBatch
	d.rxIntrNext = d.rxIntrQueued
	d.rxBodyIntr = d.rxBodyQueued
	for i := 0; i < rxBufCount; i++ {
		d.provideRxBuf()
	}
	c.OnRx = d.hwRx
	c.RxSumIgnored = !singleCopy // rxLegacy never reads BodySum
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
// queued descriptor was already killed (their owners heard SDMAFail), so the
// driver's remaining duties are re-arming the auto-DMA receive pool —
// without it, surviving connections could never hear another segment —
// and handing the event to the stack in interrupt context so it can fail
// the connections whose state died with the adaptor.
func (d *Driver) hwReset() {
	d.Stats.Resets++
	for i := 0; i < rxBufCount; i++ {
		d.provideRxBuf()
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
	m.Span().CritEv(obs.CauseCPU, obs.EvTxqPut)
	job := d.txJobs.Get()
	*job = txJob{d: d, m: m, dst: dst}
	d.txQ.Put(job)
}

// txd is the transmit daemon: it forms complete packets in network memory
// (the CAB requires fully formed, page-aligned packets, Section 2.2) and
// starts media transmission as each SDMA completes.
func (d *Driver) txd(p *sim.Proc) {
	for {
		job := d.txQ.Get(p)
		job.m.Span().CritEv(obs.CauseQueue, obs.EvTxqGet)
		d.send(p, job)
	}
}

// send transmits one packet, for both personalities. A legacy chain was
// materialized into kernel buffers at Output, so it holds no descriptor:
// nothing dooms it, it is no overlay candidate, and its gather is its
// buffers. A single-copy chain may carry M_UIO and M_WCAB descriptors.
func (d *Driver) send(p *sim.Proc, job *txJob) {
	m := job.m
	if d.dropDoomed(job, nil) {
		return
	}
	if op, prefixLen, ok := d.overlayCandidate(m); ok {
		d.sendOverlay(job, op, prefixLen)
		return
	}

	ipLen := mbuf.ChainLen(m)
	pktLen := wire.LinkHdrLen + ipLen
	t0 := d.K.Eng.Now()
	pk := d.C.AllocPacketWaitFlow(p, pktLen, m.Flow())
	if d.K.Eng.Now() > t0 {
		// The allocation blocked on network memory (or its arbiter).
		m.Span().CritEv(obs.CauseNetmem, obs.EvNetmemTx)
	}
	// The allocation may have blocked, and the chain's fate may have
	// changed in the meantime.
	if d.dropDoomed(job, pk) {
		return
	}

	gather := d.linkHdr(job, pktLen)
	pkOff := units.Size(wire.LinkHdrLen)
	for cur := m; cur != nil; cur = cur.Next() {
		switch cur.Type() {
		case mbuf.TData, mbuf.TCluster:
			gather = append(gather, cur.Bytes())
		case mbuf.TUIO:
			r := cur.UIO().Buf.Slice(cur.Off(), cur.Len())
			if !r.Space.Pinned(r.Addr, r.Len) {
				panic(fmt.Sprintf("cabdrv: DMA from unpinned user pages [%v,+%v)", r.Addr, r.Len))
			}
			gather = append(gather, r.Bytes())
		case mbuf.TWCAB:
			// Partial retransmission of outboard data whose boundaries
			// shifted (e.g. after a partial ACK): read it back. Rare.
			w := cur.WCABRef()
			d.Stats.TxFallbackReads++
			b := make([]byte, cur.Len())
			copy(b, w.Handle.Read(cur.Off(), cur.Len()))
			d.K.Led.TouchP(m.Span(), pkOff, cur.Len(), ledger.CPUCopy, ledger.LayerCabdrv, 0)
			gather = append(gather, b)
		}
		pkOff += cur.Len()
	}
	d.startTx(job, pk, gather, false)
}

// linkHdr writes the link header for a pktLen-byte packet into job and
// starts the job's gather list with it.
func (d *Driver) linkHdr(job *txJob, pktLen units.Size) [][]byte {
	wire.LinkHdr{
		Dst: uint32(job.dst), Src: uint32(d.C.NodeID()),
		Type: wire.EtherTypeIP, Len: uint32(pktLen),
	}.Marshal(job.lh[:])
	return append(job.gather[:0], job.lh[:])
}

// startTx posts the job's SDMA into pk: the whole packet from gather, or
// only a new header over the saved body when headerOnly. A packet whose
// header carries a checksum request (a non-zero CsumSkip, which only a
// single-copy route's transport sets) gets the checksum engine.
func (d *Driver) startTx(job *txJob, pk *cab.Packet, gather [][]byte, headerOnly bool) {
	m := job.m
	job.req = cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: gather, HeaderOnly: headerOnly,
		Span: m.Span(), Owner: job}
	if h := m.Hdr(); h != nil && h.CsumSkip != 0 {
		job.req.CsumOff = wire.LinkHdrLen + wire.IPHdrLen + h.CsumOff
		job.req.CsumSkip = wire.LinkHdrLen + wire.IPHdrLen + h.CsumSkip
	}
	d.pendingTxSDMA++
	m.Span().Enter(obs.StageSDMA)
	d.C.SDMA(&job.req)
}

// transportOwns reports whether the transport takes the outboard packet a
// send forms (as retransmittable M_WCAB state, through OnOutboard).
// Everything else — control segments, UDP datagrams, raw sends — is freed
// once the frame has left the adaptor.
func transportOwns(h *mbuf.Hdr) bool {
	return h != nil && h.OnOutboard != nil
}

// SDMADone implements cab.SDMAOwner. It runs in hardware context when a
// transmit packet is fully formed outboard: media transmission starts
// immediately (the TCP window was checked before the packet was cut,
// Section 2.2), and the host-side completion work is batched for the next
// interrupt.
func (job *txJob) SDMADone(req *cab.SDMAReq) {
	d := job.d
	d.Stats.TxPackets++
	var free func(*cab.Packet)
	if job.overlay == nil && !transportOwns(job.m.Hdr()) {
		free = (*cab.Packet).Free
	}
	sp := job.m.Span()
	sp.Enter(obs.StageWire)
	d.C.MDMATx(req.Pkt, hippi.NodeID(job.dst), sp, free)
	d.completeTx(job)
}

// SDMAFail implements cab.SDMAOwner. It runs in hardware context when a
// firmware reset kills a transmit SDMA: the packet never formed outboard
// and cannot be sent. What became of the data is finishTx's to sort out.
func (job *txJob) SDMAFail(*cab.SDMAReq) {
	job.d.Stats.TxResetKilled++
	job.failed = true
	job.d.completeTx(job)
}

// finishTx is a transmit job's host-side completion, in interrupt context.
// A packet the transport owns becomes its M_WCAB retransmit state. For
// sends it does not own (UDP, raw) the displaced descriptor owners are
// notified directly — their bytes are outboard, or, after a reset, never
// will be, and blocked writers must unwedge. A failed transport-owned send
// is resolved by the stack's device-reset sweep, which tears the
// connection down and releases its send buffer (notifying here too would
// double-release the writer's DMA tracker). Overlays and the legacy path
// carry no user descriptors.
func (d *Driver) finishTx(job *txJob) {
	m := job.m
	switch h := m.Hdr(); {
	case job.overlay != nil:
	case transportOwns(h):
		if !job.failed {
			pk := job.req.Pkt
			op := d.outPkts.Get()
			*op = outPkt{pktRef: pktRef{d: d, pk: pk, gen: pk.Gen(), base: wire.LinkHdrLen + wire.IPHdrLen + h.CsumSkip}}
			op.Handle, op.Valid = op, pk.Len()-op.base
			h.OnOutboard.Outboard(&op.WCAB)
		}
	default:
		mbuf.CreditOwners(m)
	}
	d.release(job)
}

// release frees a finished job's chain, tells the transport it is done
// with the packet's header, and returns the job to the free list.
func (d *Driver) release(job *txJob) {
	h := job.m.Hdr()
	mbuf.FreeChain(job.m)
	if h != nil && h.OnOutboard != nil {
		h.OnOutboard.Done()
	}
	d.txJobs.Put(job)
}

// dropDoomed discards job, and frees pk if the packet was allocated, when
// its chain can no longer be sent. Abandoned (TxAbandoned): a descriptor
// was released by a connection teardown while the packet waited (the
// queued copies share the send buffer's headers), or the chain references
// outboard data a firmware reset wiped, which no descriptor can rebuild;
// the stack's device-reset sweep resolves such a connection. Stale
// (TxStaleAcked): the chain references user pages no longer pinned, since
// an ACK released them while the job queued (a retransmission that lost
// its race with the ACK, seen under fabric-scale RTTs). Abandoned wins
// over stale.
func (d *Driver) dropDoomed(job *txJob, pk *cab.Packet) bool {
	abandoned, stale := false, false
	for cur := job.m; cur != nil && !abandoned; cur = cur.Next() {
		switch cur.Type() {
		case mbuf.TUIO:
			if h := cur.Hdr(); h != nil && h.Abandoned {
				abandoned = true
			} else if !stale {
				r := cur.UIO().Buf.Slice(cur.Off(), cur.Len())
				stale = !r.Space.Pinned(r.Addr, r.Len)
			}
		case mbuf.TWCAB:
			abandoned = cur.WCABRef().Handle.Dead()
		}
	}
	switch {
	case abandoned:
		d.Stats.TxAbandoned++
	case stale:
		d.Stats.TxStaleAcked++
	default:
		return false
	}
	if pk != nil {
		pk.Free()
	}
	d.release(job)
	return true
}

// sendOverlay retransmits an outboard packet by DMAing only the fresh
// headers over the old ones; the checksum engine combines the new seed
// with the body checksum it saved on the first transmission (Section 4.3).
func (d *Driver) sendOverlay(job *txJob, op *outPkt, prefixLen units.Size) {
	d.Stats.TxOverlays++
	op.overlays++
	job.overlay = op
	hb := job.ovHdr[:]
	if prefixLen > ovHdrRoom {
		hb = make([]byte, prefixLen)
	}
	hb = hb[:prefixLen]
	mbuf.ReadRange(job.m, 0, prefixLen, hb)
	d.startTx(job, op.pk, append(d.linkHdr(job, op.pk.Len()), hb), true)
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
	if !ok || !op.pk.Live(op.gen) || op.pk.Owner() != d.C {
		return nil, 0, false
	}
	if op.overlays >= maxOverlaysPerPacket {
		return nil, 0, false
	}
	if cur.Off() != 0 || cur.Len() != w.Valid {
		return nil, 0, false
	}
	if prefixLen+wire.LinkHdrLen != op.base {
		return nil, 0, false
	}
	return op, prefixLen, true
}

// completeTx batches host-side completion work, raising one interrupt when
// the SDMA engine drains (or the batch grows large) — the paper's "only
// the final packet's SDMA request needs to be flagged to interrupt the
// host" discipline (Section 2.2).
func (d *Driver) completeTx(job *txJob) {
	d.txDone.Put(job)
	d.txBatchLen++
	d.pendingTxSDMA--
	if d.pendingTxSDMA == 0 || d.txBatchLen >= doneBatchLimit {
		d.txBatches.Put(d.txBatchLen)
		d.txBatchLen = 0
		d.K.PostIntr("cab-tx-done", d.txDoneIntr)
	}
}

// finishTxBatch is the cab-tx-done interrupt: it completes the oldest
// posted batch.
func (d *Driver) finishTxBatch(p *sim.Proc) {
	// Open the handler's profiler frame, as every interrupt handler does,
	// although the completion work charges nothing to it.
	d.K.IntrCtx(p).In("cabdrv_txdone")
	n, _ := d.txBatches.TryGet()
	for ; n > 0; n-- {
		job, _ := d.txDone.TryGet()
		d.finishTx(job)
	}
}
