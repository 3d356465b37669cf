package tcpip

import (
	"encoding/binary"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/units"
	"repro/internal/wire"
)

// tcpInput demultiplexes and processes a received TCP segment. m's first
// mbuf starts with the TCP header; descriptor mbufs may follow (the CAB's
// WCAB receive path). Runs in interrupt context.
func (s *Stack) tcpInput(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr) {
	s.Stats.TCPSegsIn++
	if m.Len() < wire.TCPHdrLen {
		mbuf.FreeChain(m)
		return
	}
	hdr, err := wire.ParseTCPHdr(m.Bytes())
	if err != nil {
		mbuf.FreeChain(m)
		return
	}
	ctx = ctx.In(obs.LayerTCPInput).WithFlow(int(hdr.DPort))

	// Verify the data checksum before any state changes. On the
	// single-copy path this touches only the header: the CAB computed the
	// sum during the media transfer (Section 4.3).
	if !s.verifyTransportCsum(ctx, m, iph, wire.ProtoTCP) {
		s.Stats.TCPCsumErrors++
		mbuf.FreeChain(m)
		return
	}
	ctx.Charge(s.K.Mach.TCPPerPacket/2, kern.CatProto)

	key := connKey{raddr: iph.Src, lport: hdr.DPort, rport: hdr.SPort}
	c, ok := s.conns[key]
	if !ok {
		// Passive open?
		if l, lok := s.listeners[hdr.DPort]; lok && hdr.Flags&wire.FlagSYN != 0 && hdr.Flags&wire.FlagACK == 0 {
			l.acceptSyn(ctx, key, hdr)
		} else {
			if hdr.Flags&wire.FlagRST == 0 {
				s.sendRst(ctx, key, hdr, mbuf.ChainLen(m)-wire.TCPHdrLen)
			}
		}
		mbuf.FreeChain(m)
		return
	}

	// Strip the TCP header; what remains is payload.
	m.TrimFront(wire.TCPHdrLen)
	seglen := mbuf.ChainLen(m)
	if seglen > 0 && iph.ECN != 0 {
		// DCTCP-style state echo: outgoing segments carry FlagECE exactly
		// while the most recent data segment arrived congestion-experienced,
		// so the echoed fraction of acknowledged bytes tracks the fabric's
		// actual marking rate (a consume-once latch would dilute it under
		// delayed ACKs).
		c.ceSeen = iph.ECN == wire.ECNCE
	}
	c.segInput(ctx, hdr, m, seglen)
}

// acceptSyn creates a connection in SYN_RCVD and answers SYN|ACK. The
// listener's backlog bounds half-open plus unaccepted connections: beyond
// it the SYN is dropped deterministically (no state, no reply) and the
// peer's SYN retransmission retries once the backlog drains.
func (l *TCPListener) acceptSyn(ctx kern.Ctx, key connKey, hdr wire.TCPHdr) {
	if l.pending+l.backlog.Len() >= l.limit {
		l.stk.Stats.TCPListenOverflow++
		return
	}
	l.pending++
	c := l.stk.newConn(key)
	c.listener = l
	c.setMaxSeg()
	c.rcvNxt = hdr.Seq + 1
	c.iss = l.stk.K.Eng.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.sndWnd = wire.UnscaleWindow(hdr.Wnd)
	c.wl1, c.wl2 = hdr.Seq, hdr.Ack
	c.state = StateSynRcvd
	c.sendControl(ctx, c.sndNxt, wire.FlagSYN|wire.FlagACK)
	c.sndNxt++
	c.sndMax = c.sndNxt
	c.armRtx()
}

// segInput is the per-connection segment processor.
func (c *TCPConn) segInput(ctx kern.Ctx, hdr wire.TCPHdr, payload *mbuf.Mbuf, seglen units.Size) {
	// Any segment from the peer is proof of life: reset the keepalive
	// probe ladder.
	c.lastRcvd = c.stk.K.Eng.Now()
	c.kaProbes = 0
	if hdr.Flags&wire.FlagRST != 0 {
		// Only accept a RST that is plausibly in-window (blind-reset
		// hardening; trivial here, but the check documents itself).
		if c.state == StateSynSent || hdr.Seq == c.rcvNxt {
			c.stk.Stats.TCPRstsIn++
			c.teardown(ErrConnReset)
		}
		mbuf.FreeChain(payload)
		return
	}

	switch c.state {
	case StateSynSent:
		if hdr.Flags&(wire.FlagSYN|wire.FlagACK) == wire.FlagSYN|wire.FlagACK &&
			hdr.Ack == c.sndNxt {
			c.rcvNxt = hdr.Seq + 1
			c.sndUna = hdr.Ack
			c.sndWnd = wire.UnscaleWindow(hdr.Wnd)
			c.wl1, c.wl2 = hdr.Seq, hdr.Ack
			c.state = StateEstablished
			c.cancelRtx()
			c.ackNow = true
			c.Output(ctx)
			c.establishedSig.Broadcast()
		}
		mbuf.FreeChain(payload)
		return

	case StateSynRcvd:
		if hdr.Flags&wire.FlagACK != 0 && hdr.Ack == c.sndNxt {
			c.sndUna = hdr.Ack
			c.state = StateEstablished
			c.cancelRtx()
			if c.listener != nil {
				c.listener.pending--
				c.listener.backlog.Put(c)
				c.listener = nil
			}
			// Fall through: the ACK may carry data.
		} else {
			mbuf.FreeChain(payload)
			return
		}

	case StateClosed:
		mbuf.FreeChain(payload)
		return
	}

	if hdr.Flags&wire.FlagACK != 0 && seqGT(hdr.Ack, c.sndUna) && seqLEQ(hdr.Ack, c.sndMax) {
		// A new-data acknowledgement arrived: the sender's ACK clock ticks.
		// Segments (and writer wakeups) it releases bind here. An untraced
		// packet (no span, or one off the CAB path) records no event.
		if id := payload.Span().CritEv(obs.CauseCPU, obs.EvAckIn); id != 0 {
			c.critAck = id
			c.trigger(id, obs.CauseAckClock)
		}
	}

	if seglen == 0 && hdr.Flags&^wire.FlagECE == wire.FlagACK && hdr.Seq+1 == c.rcvNxt &&
		c.state >= StateEstablished {
		// A zero-length segment one sequence number below the window: a
		// keepalive probe (RFC 1122 4.2.3.6 style). Answer with a bare ACK
		// so the prober learns we are alive. Normal pure ACKs carry
		// hdr.Seq == rcvNxt, so they never take this branch.
		c.ackNow = true
	}

	if hdr.Flags&wire.FlagACK != 0 {
		if seglen == 0 && hdr.Flags&^wire.FlagECE == wire.FlagACK && hdr.Ack == c.sndUna &&
			c.state >= StateEstablished && seqGT(c.sndMax, c.sndUna) &&
			wire.UnscaleWindow(hdr.Wnd) == c.sndWnd {
			// A pure duplicate acknowledgement (any state with data
			// outstanding — the writer may already have half-closed). The
			// ECN-echo bit is masked out: a dupack is a dupack whether or
			// not it also echoes congestion.
			c.onDupAck(ctx, payload.Span())
		}
		c.processAck(ctx, hdr)
		if c.state == StateClosed {
			mbuf.FreeChain(payload)
			return
		}
	}

	fin := hdr.Flags&wire.FlagFIN != 0
	if seglen > 0 || fin {
		c.processData(ctx, hdr.Seq, payload, seglen, fin)
	} else {
		mbuf.FreeChain(payload)
	}

	if c.ackNow {
		if c.critRcv != 0 {
			// Immediate ACK generation: triggered by the data (or FIN) this
			// segment delivered.
			c.trigger(c.critRcv, obs.CauseCPU)
		}
		c.Output(ctx)
	}
}

// processAck handles the acknowledgement and window fields.
func (c *TCPConn) processAck(ctx kern.Ctx, hdr wire.TCPHdr) {
	ack := hdr.Ack
	if seqGT(ack, c.sndUna) && seqLEQ(ack, c.sndMax) {
		c.progressAt = c.stk.K.Eng.Now() // forward progress: user-timeout clock restarts
		c.takeRTTSample(ack)
		advance := seqDiff(ack, c.sndUna)
		c.onNewAck(advance, hdr.Flags&wire.FlagECE != 0)
		// An acknowledgement past the buffered data covers the FIN's
		// sequence slot.
		finAcked := false
		if advance > c.sndLen {
			advance = c.sndLen
			finAcked = true
		}
		if advance > 0 {
			// Acknowledged data leaves the send buffer; M_WCAB mbufs
			// dropping to zero references free their outboard packets —
			// "freed when the data is acknowledged" (Section 4.2).
			c.sndBuf = mbuf.AdjFront(c.sndBuf, advance)
			c.sndLen -= advance
			c.sndSpaceSig.Broadcast()
		}
		c.sndUna = ack
		if seqGT(c.sndUna, c.sndNxt) {
			// A rewound sndNxt cannot lag the acknowledged point.
			c.sndNxt = c.sndUna
		}
		c.retries = 0
		c.rto = baseRTO
		if c.sndUna == c.sndMax {
			c.cancelRtx()
		} else {
			c.armRtx()
		}
		if finAcked {
			switch c.state {
			case StateFinWait1:
				c.state = StateFinWait2
			case StateLastAck:
				c.teardown(nil)
				return
			}
		}
		// The acknowledgement freed window space (advertised or
		// congestion): move more data, as tcp_input always finishes by
		// calling tcp_output.
		c.Output(ctx)
	}
	// Window update (RFC 793 wl1/wl2 discipline).
	if seqLT(c.wl1, hdr.Seq) || (c.wl1 == hdr.Seq && seqLEQ(c.wl2, ack)) {
		newWnd := wire.UnscaleWindow(hdr.Wnd)
		opened := newWnd > c.sndWnd
		c.sndWnd = newWnd
		c.wl1, c.wl2 = hdr.Seq, ack
		if c.sndWnd > 0 {
			c.cancelPersist()
		}
		if opened {
			// The peer's window opened: segments released here are
			// ACK-clocked.
			c.trigger(c.critAck, obs.CauseAckClock)
			c.Output(ctx)
		}
	}
	c.noteQueues()
	c.noteNetObs()
}

// processData accepts in-order payload, queues out-of-order segments for
// reassembly, and handles FIN.
func (c *TCPConn) processData(ctx kern.Ctx, seq uint32, payload *mbuf.Mbuf, seglen units.Size, fin bool) {
	// Trim data that precedes rcvNxt (retransmitted overlap).
	if seqLT(seq, c.rcvNxt) {
		dup := seqDiff(c.rcvNxt, seq)
		if dup >= seglen {
			// Entirely duplicate (possibly a bare FIN retransmit).
			c.stk.Stats.TCPDupSegs++
			mbuf.FreeChain(payload)
			if fin && seqDiff(c.rcvNxt, seq) == seglen && !c.peerFin {
				c.acceptFin(ctx)
			}
			c.ackNow = true
			return
		}
		payload = mbuf.AdjFront(payload, dup)
		seq = c.rcvNxt
		seglen -= dup
	}

	if seq == c.rcvNxt {
		if seglen > c.rcvSpace() {
			// Beyond our advertised window: drop, re-advertise.
			mbuf.FreeChain(payload)
			c.ackNow = true
			return
		}
		// In-order data reached the receive buffer; read wakeups and the
		// ACK it provokes hang off this event.
		if id := payload.Span().CritEv(obs.CauseCPU, obs.EvRcvEnq); id != 0 {
			c.critRcv = id
		}
		c.enqueueRcv(payload, seglen)
		if fin {
			c.acceptFin(ctx)
		}
		c.pullReassembly(ctx)
		c.ackPending++
		if c.ackPending >= delAckThreshold || c.peerFin {
			c.ackNow = true
		} else {
			c.armDelAck()
		}
		return
	}

	// Out of order: hold for reassembly (bounded by the offered window).
	c.stk.Stats.TCPOutOfOrder++
	if seglen <= c.rcvSpace() && len(c.reass) < 64 {
		c.reass = append(c.reass, reassSeg{seq: seq, len: seglen, chain: payload, fin: fin})
	} else {
		mbuf.FreeChain(payload)
	}
	c.ackNow = true // duplicate ACK tells the sender where we are
}

// enqueueRcv appends in-order payload to the receive buffer.
func (c *TCPConn) enqueueRcv(payload *mbuf.Mbuf, seglen units.Size) {
	c.rcvBuf = mbuf.Cat(c.rcvBuf, payload)
	c.rcvLen += seglen
	c.rcvNxt += uint32(seglen)
	c.noteQueues()
	c.rcvDataSig.Broadcast()
}

// pullReassembly drains any now-in-order held segments.
func (c *TCPConn) pullReassembly(ctx kern.Ctx) {
	for {
		progress := false
		for i, seg := range c.reass {
			if seg.seq == c.rcvNxt {
				c.reass = append(c.reass[:i], c.reass[i+1:]...)
				// Held out-of-order data became readable only once the gap
				// filled: a reassembly-queue wait.
				if id := seg.chain.Span().CritEv(obs.CauseQueue, obs.EvReassPull); id != 0 {
					c.critRcv = id
				}
				c.enqueueRcv(seg.chain, seg.len)
				if seg.fin {
					c.acceptFin(ctx)
				}
				progress = true
				break
			}
			if seqLT(seg.seq, c.rcvNxt) {
				// Obsoleted by what we already have.
				c.reass = append(c.reass[:i], c.reass[i+1:]...)
				mbuf.FreeChain(seg.chain)
				progress = true
				break
			}
		}
		if !progress {
			return
		}
	}
}

// acceptFin consumes the peer's FIN.
func (c *TCPConn) acceptFin(ctx kern.Ctx) {
	if c.peerFin {
		return
	}
	c.peerFin = true
	c.rcvNxt++
	c.ackNow = true
	c.rcvDataSig.Broadcast()
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close; treat as LastAck.
		c.state = StateLastAck
	case StateFinWait2:
		// Orderly: ACK their FIN and finish.
		c.ackNow = true
		c.Output(ctx)
		c.teardown(nil)
	}
}

// sendRst answers a segment that reached no connection, as 4.3BSD's
// tcp_respond does: RST with sequencing derived from the offending
// segment so the peer accepts it.
func (s *Stack) sendRst(ctx kern.Ctx, key connKey, in wire.TCPHdr, seglen units.Size) {
	s.Stats.TCPRstsOut++
	var hdr wire.TCPHdr
	hdr.SPort, hdr.DPort = key.lport, key.rport
	if in.Flags&wire.FlagACK != 0 {
		hdr.Seq = in.Ack
		hdr.Flags = wire.FlagRST
	} else {
		ack := in.Seq + uint32(seglen)
		if in.Flags&wire.FlagSYN != 0 {
			ack++
		}
		hdr.Seq = 0
		hdr.Ack = ack
		hdr.Flags = wire.FlagRST | wire.FlagACK
	}
	hb := make([]byte, wire.TCPHdrLen)
	hdr.Marshal(hb)
	ps := pseudoSum(s.Addr, key.raddr, wire.ProtoTCP, wire.TCPHdrLen)
	binary.BigEndian.PutUint16(hb[wire.TCPCsumOff:], softCsum(hb, ps, 0))
	hm := s.K.Mbufs.NewData(hb)
	hm.MarkPktHdr(wire.TCPHdrLen)
	s.IPOutput(ctx, hm, wire.ProtoTCP, key.raddr)
}
