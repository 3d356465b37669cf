package tcpip

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/wire"
)

// Output drives the send side: it emits as many segments as the peer's
// window and the send buffer allow, plus any pending pure ACK or FIN. It
// is the Net2 tcp_output analogue and runs in either process context
// (after a write) or interrupt context (after an ACK opens the window).
func (c *TCPConn) Output(ctx kern.Ctx) {
	if c.state == StateClosed || c.state == StateSynSent || c.state == StateSynRcvd {
		return
	}
	defer c.noteNetObs()
	for {
		off := seqDiff(c.sndNxt, c.sndUna)
		if c.finSent && off > 0 {
			off-- // the FIN's sequence slot holds no buffer data
		}
		avail := c.sndLen - off
		if avail < 0 {
			panic(fmt.Sprintf("tcpip: negative avail: sndUna=%d sndNxt=%d sndLen=%v finSent=%v state=%v",
				c.sndUna, c.sndNxt, c.sndLen, c.finSent, c.state))
		}
		var seglen units.Size
		wnd := c.sendWindow()
		if wnd > off {
			seglen = wnd - off
			if seglen > avail {
				seglen = avail
			}
			if seglen > c.MaxSeg {
				seglen = c.MaxSeg
			}
			seglen = c.capAtBoundary(c.sndNxt, seglen)
		}
		// Zero advertised window with data pending: let the persist
		// timer probe (a congestion-closed window recovers via ACKs, not
		// probes).
		if seglen == 0 && avail > 0 && c.sndWnd <= off {
			c.armPersist()
		}

		sendFin := c.closePending && !c.finSent && seglen == avail &&
			(c.state == StateFinWait1 || c.state == StateLastAck)

		if seglen == 0 && !sendFin && !c.ackNow {
			return
		}

		flags := wire.FlagACK
		if sendFin {
			flags |= wire.FlagFIN
		}
		if seglen > 0 && seglen == avail {
			flags |= wire.FlagPSH
		}
		c.sendSegment(ctx, c.sndNxt, seglen, flags)
		if seglen > 0 && c.sndNxt == c.sndMax {
			// Fresh data, not a retransmission: time it (Karn's rule).
			c.startRTTSample(c.sndNxt + uint32(seglen))
		}
		c.sndNxt += uint32(seglen)
		if sendFin {
			c.sndNxt++
			c.finSent = true
		}
		if seqGT(c.sndNxt, c.sndMax) {
			c.sndMax = c.sndNxt
		}
		if seglen > 0 || sendFin {
			c.armRtx()
		}
		c.ackNow = false
		c.ackPending = 0
		if seglen == 0 && !sendFin {
			return // pure ACK sent; nothing more to move
		}
	}
}

// sendControl emits a data-less control segment (SYN, SYN|ACK, bare ACK
// during handshake).
func (c *TCPConn) sendControl(ctx kern.Ctx, seq uint32, flags uint16) {
	c.sendSegmentRaw(ctx, seq, 0, flags, nil)
}

// sendSegment emits one segment carrying seglen bytes starting at sequence
// seq, cutting the data symbolically out of the send buffer (the paper's
// "search the transmit queue for a block of data at a specific offset",
// which must cope with chains mixing regular, M_UIO, and M_WCAB mbufs).
func (c *TCPConn) sendSegment(ctx kern.Ctx, seq uint32, seglen units.Size, flags uint16) {
	var data *mbuf.Mbuf
	if seglen > 0 {
		data = mbuf.CopyRange(c.sndBuf, seqDiff(seq, c.sndUna), seglen)
		if seqLT(seq, c.sndMax) {
			c.stk.Stats.TCPRetransmits++
		}
	}
	c.sendSegmentRaw(ctx, seq, seglen, flags, data)
}

// sendSegmentRaw builds the header, arranges checksumming (outboard when
// the route's interface supports it, software otherwise), and hands the
// packet to IP.
func (c *TCPConn) sendSegmentRaw(ctx kern.Ctx, seq uint32, seglen units.Size, flags uint16, data *mbuf.Mbuf) {
	ctx = ctx.In("tcp_output").WithFlow(int(c.key.lport))
	// A data segment's span is its one recorder handle, made when the
	// trace or the ledger is on: the stream byte range it carries (data
	// byte 0 is sequence iss+1), the retransmit flag, and the sosend
	// descriptor the bytes came from. A fresh segment's span is backdated
	// to when its first byte was enqueued (the socket stage); a
	// retransmission starts now.
	var span *obs.Span
	if seglen > 0 && (c.stk.tr != nil || c.stk.K.Led != nil) {
		rtx := seqLT(seq, c.sndMax)
		st, queued := c.stampAt(seq)
		queued = queued && !rtx
		at := st.t
		if !queued {
			at = c.stk.K.Eng.Now()
		}
		span = c.stk.tr.StartSeg(c.stk.K.Name, at, obs.Seg{
			Flow:       int(c.key.lport),
			Off:        seqDiff(seq, c.iss) - 1,
			Len:        seglen,
			PayloadOff: wire.LinkHdrLen + wire.IPHdrLen + wire.TCPHdrLen,
			Desc:       firstDescID(data),
			Rtx:        rtx,
		})
		if queued {
			span.EnterAt(obs.StageSocket, at)
		}
		span.Enter(obs.StagePacketize)
		// The segment could be cut once its data was enqueued (the writer's
		// event, via the queue edge: time the bytes sat in the send buffer)
		// AND its trigger fired (append, ACK, window open, timer); the
		// later of the two binds.
		span.Seed(st.ev)
		span.CritEvJoin(obs.CauseQueue, c.trig.Cur(), c.trigC, obs.EvTCPOutput)
	} else if span = c.stk.tr.StartCarrier(c.stk.K.Name, int(c.key.lport)); span != nil {
		// Data-less segment (pure ACK, control) with the causal recorder
		// on: a silent carrier span lets the ACK's chain ride the wire.
		span.Seed(c.trig.Cur())
		span.CritEv(c.trigC, obs.EvAckGen)
	}
	if span != nil {
		// Later segments of the same burst queue behind this one's CPU.
		c.trigger(span.Cur(), obs.CauseCPU)
	}
	if c.ceSeen {
		// Echo the current congestion-experienced state back to the sender;
		// DCTCP's estimator works on the echoed fraction of acknowledged
		// bytes, so the echo persists until an unmarked data segment arrives.
		flags |= wire.FlagECE
	}
	singleCopy, _ := c.stk.RouteCaps(c.key.raddr)
	segTotal := wire.TCPHdrLen + seglen
	wnd := c.rcvSpace()
	hdr := wire.TCPHdr{
		SPort: c.key.lport,
		DPort: c.key.rport,
		Seq:   seq,
		Ack:   c.rcvNxt,
		Flags: flags,
		Wnd:   wire.ScaleWindow(wnd),
	}
	c.rcvAdvertised = wnd

	ps := pseudoSum(c.stk.Addr, c.key.raddr, wire.ProtoTCP, segTotal)
	hb := make([]byte, wire.TCPHdrLen)
	var phdr *mbuf.Hdr

	useHW := singleCopy && seglen > 0
	if useHW {
		// Outboard checksumming (Section 4.3): the host covers the TCP
		// header and pseudo-header with a seed placed in the checksum
		// field; the CAB sums the payload during the SDMA into network
		// memory and combines.
		hdr.Csum = 0
		hdr.Marshal(hb)
		seed := checksum.Fold(checksum.Add(ps, checksum.Sum(hb)))
		hdr.Csum = seed
		hdr.Marshal(hb)
		hs := c.stk.hwSegs.Get()
		*hs = hwSeg{c: c, seq: seq, n: seglen}
		hs.hdr = mbuf.Hdr{
			NeedCsum:   true,
			CsumOff:    wire.TCPCsumOff,
			CsumSkip:   wire.TCPHdrLen,
			CsumSeed:   uint32(seed),
			OnOutboard: hs,
		}
		phdr = &hs.hdr
	} else {
		// Software checksum: the CPU reads the segment (this is the
		// per-byte cost the single-copy path eliminates).
		hdr.Csum = 0
		hdr.Marshal(hb)
		sum := checksum.Add(ps, checksum.Sum(hb))
		if seglen > 0 {
			// The checksum read's cache working set is the retransmit
			// queue the segment was cut from: with a large window the
			// buffered kernel data cycles through the cache (the paper's
			// Section 7.2 observation that a smaller TCP window raises
			// efficiency).
			region := c.sndLen
			if region < seglen {
				region = seglen
			}
			csCtx := ctx
			if c.stk.K.Led != nil {
				// The chain is payload only: offset 0 is the segment's
				// first stream byte.
				csCtx = ctx.OnStreamProv(span, span.Seg().Off)
			}
			sum = checksum.Combine(sum, csumChain(csCtx, data, seglen, region), int(wire.TCPHdrLen))
			// The CPU read every payload byte to checksum it — the
			// data-touching edge absent from the single-copy sender.
			span.CritEv(obs.CauseCPUCsum, obs.EvTCPCsum)
		}
		hdr.Csum = checksum.Finish(sum)
		hdr.Marshal(hb)
		if seglen > 0 {
			// Carry the flow tag even on the software path so the driver's
			// netmem accounting stays per flow.
			phdr = &mbuf.Hdr{}
		}
		if data != nil && mbuf.HasDescriptors(data) {
			// Headed for a legacy device: ask the driver-entry shim to
			// hand back the materialized data so the send buffer stops
			// referencing user memory (Section 5).
			phdr = &mbuf.Hdr{}
			seqCopy, lenCopy := seq, seglen
			phdr.OnConverted = func(m *mbuf.Mbuf) { c.onConverted(seqCopy, lenCopy, m) }
		}
	}

	hm := c.stk.K.Mbufs.NewData(hb)
	hm.SetNext(data)
	hm.MarkPktHdr(segTotal)
	if phdr != nil {
		phdr.Flow = int(c.key.lport)
		hm.SetHdr(phdr)
	}
	hm.AttachSpan(span)
	ctx.Charge(c.stk.K.Mach.TCPPerPacket, kern.CatProto)
	c.stk.Stats.TCPSegsOut++
	var ecn uint8
	if seglen > 0 && c.cc.ecnCapable() {
		ecn = wire.ECNECT0
	}
	c.stk.IPOutputECN(ctx, hm, wire.ProtoTCP, c.key.raddr, ecn)
}

// hwSeg is an outboard-checksummed segment's packet header together with
// the send-buffer range the driver's completion hands back as M_WCAB. It
// comes from the stack's free list and goes back when the driver is done
// with the packet.
type hwSeg struct {
	hdr mbuf.Hdr
	c   *TCPConn
	seq uint32
	n   units.Size
}

// Outboard implements mbuf.OutboardSink.
func (s *hwSeg) Outboard(w *mbuf.WCAB) { s.c.onOutboard(s.seq, s.n, w) }

// Done implements mbuf.OutboardSink.
func (s *hwSeg) Done() { s.c.stk.hwSegs.Put(s) }

// onOutboard runs in interrupt context once a transmitted packet's data
// resides in network memory: the corresponding range of the send buffer is
// converted to an M_WCAB mbuf so retransmission reads network memory, the
// displaced M_UIO descriptors' owners are notified (waking the writer when
// its last DMA completes), and the paper's invariant — WCAB data freed
// only on acknowledgement — is preserved by the mbuf reference counts.
func (c *TCPConn) onOutboard(seq uint32, n units.Size, w *mbuf.WCAB) {
	if c.state == StateClosed {
		discardWCAB(w)
		return
	}
	// Clamp away any part that was acknowledged while the completion
	// notification was pending.
	skip := units.Size(0)
	if seqLT(seq, c.sndUna) {
		skip = seqDiff(c.sndUna, seq)
		if skip >= n {
			discardWCAB(w)
			return
		}
		seq = c.sndUna
		n -= skip
	}
	off := seqDiff(seq, c.sndUna)
	if off+n > c.sndLen {
		// Shouldn't happen: the range was cut from the buffer.
		discardWCAB(w)
		return
	}
	front, rest := mbuf.SplitAt(c.sndBuf, off)
	mid, back := mbuf.SplitAt(rest, n)

	// Notify descriptor owners that their bytes are secured outboard.
	for m := mid; m != nil; m = m.Next() {
		if m.Type() == mbuf.TUIO {
			if h := m.Hdr(); h != nil && h.Owner != nil {
				h.Owner.DMADone(m.Len())
			}
		}
	}
	wm := c.stk.K.Mbufs.NewWCAB(w, skip, n, nil)
	mbuf.FreeChain(mid)
	c.sndBuf = mbuf.Cat(mbuf.Cat(front, wm), back)
	c.stk.ctrWCABConv.Inc()
}

// onConverted is the legacy-device analogue of onOutboard: the driver-entry
// shim materialized the packet into kernel buffers; the send buffer range
// is replaced with (clones of) those buffers so retransmission no longer
// touches user memory, preserving copy semantics (Section 5).
func (c *TCPConn) onConverted(seq uint32, n units.Size, converted *mbuf.Mbuf) {
	if c.state == StateClosed {
		return
	}
	// converted is the whole materialized packet (link/IP/TCP headers plus
	// payload); the payload is its tail.
	payloadOff := mbuf.ChainLen(converted) - n
	repl := mbuf.CopyRange(converted, payloadOff, n)
	if seqLT(seq, c.sndUna) {
		skip := seqDiff(c.sndUna, seq)
		if skip >= n {
			mbuf.FreeChain(repl)
			return
		}
		repl = mbuf.AdjFront(repl, skip)
		seq = c.sndUna
		n -= skip
	}
	off := seqDiff(seq, c.sndUna)
	if off+n > c.sndLen {
		mbuf.FreeChain(repl)
		return
	}
	front, rest := mbuf.SplitAt(c.sndBuf, off)
	mid, back := mbuf.SplitAt(rest, n)
	for m := mid; m != nil; m = m.Next() {
		if m.Type() == mbuf.TUIO {
			if h := m.Hdr(); h != nil && h.Owner != nil {
				h.Owner.DMADone(m.Len())
			}
		}
	}
	mbuf.FreeChain(mid)
	c.sndBuf = mbuf.Cat(mbuf.Cat(front, repl), back)
}

// discardWCAB frees an outboard packet that found no send-buffer home.
func discardWCAB(w *mbuf.WCAB) {
	w.Ref()
	w.Unref()
}

// firstDescID returns the first sosend descriptor id recorded on the chain
// (0 when none — regular data, or the ledger is off).
func firstDescID(m *mbuf.Mbuf) int64 {
	for ; m != nil; m = m.Next() {
		if id := m.DescID(); id != 0 {
			return id
		}
	}
	return 0
}
