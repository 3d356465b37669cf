package cab

import (
	"repro/internal/checksum"
	"repro/internal/hippi"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// txEntry is one media-transmit request on a logical channel, queued by
// value.
type txEntry struct {
	pkt  *Packet
	gen  uint32 // pkt's generation when the entry was posted
	dst  hippi.NodeID
	span *obs.Span
	done func(*Packet)
}

// MDMATx queues packet pk for media transmission to dst on the logical
// channel for that destination. done (optional) runs with pk in hardware
// context once the frame has fully left the adaptor; it is called with the
// packet so that one function, bound once — (*Packet).Free for a packet
// that is not retransmit state — serves every frame. The packet is NOT
// freed otherwise: for TCP it stays in network memory as retransmit data
// until the host frees it (on acknowledgement). span (nil when telemetry
// and the ledger are disabled) rides the frame so the receiver continues
// the packet's data-path span and attributes its data touches.
func (c *CAB) MDMATx(pk *Packet, dst hippi.NodeID, span *obs.Span, done func(*Packet)) {
	if pk.zapped {
		// Firmware reset wiped the packet between the host's decision to
		// transmit and this posting; the frame is never sent.
		c.Stats.TxKilled++
		return
	}
	if pk.freed {
		panic("cab: MDMATx on freed packet")
	}
	ch := int(dst) % len(c.channels)
	c.channels[ch].Put(txEntry{pkt: pk, gen: pk.gen, dst: dst, span: span, done: done})
	c.txPend.Signal()
}

// mdmaNext is the MDMA transmit engine as a continuation on the event
// loop: it takes the next frame from the logical channels, round-robin,
// or waits for one to be posted, and serializes it onto the media;
// mdmaSent finishes the frame once it has left the adaptor and takes the
// next. With multiple channels a busy destination would only stall its
// own channel; the functional network model never blocks a destination,
// so round-robin service is sufficient here (the head-of-line effect
// itself is quantified by the hol.go study). The steps schedule the
// events a process waiting on txPend and on the frame's departure would.
func (c *CAB) mdmaNext() {
	for {
		e, ok := c.nextTx()
		if !ok {
			c.txPend.WaitFunc(c.mdmaNextFn)
			return
		}
		if !e.pkt.Live(e.gen) {
			// The host freed the packet (e.g. connection teardown) while
			// the request sat on its channel; drop the frame. The record
			// may already be another packet's.
			continue
		}
		e.span.CritEv(obs.CauseQueue, obs.EvMDMAStart)
		// The MDMA engine reads the packet out of network memory as the
		// frame serializes; copy the bytes so the host may overlay a new
		// header (retransmit) without racing the in-flight frame. The copy
		// is the frame's own: the receiving adaptor keeps it.
		data := c.net.Bufs.Get(int(e.pkt.Len()))
		copy(data, e.pkt.buf)
		c.Led.TouchP(e.span, 0, e.pkt.Len(), ledger.MDMATx, obs.LayerMDMA, 0)
		c.txCur = e
		c.net.SendFrame(hippi.Frame{Src: c.nodeID, Dst: e.dst, Data: data, Span: e.span, Flow: e.pkt.flow},
			c.sentFn)
		return
	}
}

// nextTx takes the oldest entry of the first non-empty channel at or after
// the round-robin position.
func (c *CAB) nextTx() (txEntry, bool) {
	for i := range c.channels {
		ch := (c.txNext + i) % len(c.channels)
		if e, ok := c.channels[ch].TryGet(); ok {
			c.txNext = ch + 1
			return e, true
		}
	}
	return txEntry{}, false
}

// frameSent runs when the frame on the wire has left the adaptor; the
// engine goes on in an event of its own, where the wake-up of a process
// waiting for the frame would have run.
func (c *CAB) frameSent() { c.eng.AfterKind(0, sim.KindProc, c.mdmaSentFn) }

// mdmaSent finishes the frame that has left the adaptor and takes the next.
func (c *CAB) mdmaSent() {
	e := c.txCur
	c.txCur = txEntry{}
	e.span.CritEv(obs.CauseWire, obs.EvMDMAXmit)
	c.Stats.TxPackets++
	if e.done != nil {
		e.done(e.pkt)
	}
	c.mdmaNext()
}

// Bounded receive backpressure: when network memory or auto-DMA buffers
// are exhausted, the MDMA receive engine holds the arriving frame on the
// link and retries instead of silently discarding it. Held frames form a
// FIFO serviced strictly in arrival order — letting a later frame claim
// freed memory first would open a sequence gap whose successors then pin
// the remaining memory in the reassembly queue, deadlocking the very
// reader whose progress frees pages. The hold is bounded (rxRetryLimit ×
// rxRetryDelay ≈ 10ms at the head of the queue) so a wedged host still
// sheds load — past the bound the drop is counted as before, from the
// head, so the tail that remains is contiguous.
const (
	rxRetryDelay = 25 * units.Microsecond
	rxRetryLimit = 400
)

// FlowKey is the arbiter account key for traffic received from a remote
// sender: the (source node, sender local port) pair packed into one int.
// Port numbers alone collide across hosts — every stack hands out
// ephemeral ports from the same base — so receive-side accounts must
// carry the node. Zero (unattributed/control traffic) stays zero.
func FlowKey(src hippi.NodeID, port int) int {
	if port == 0 {
		return 0
	}
	return int(src)<<16 | port
}

// rxFlowKey is FlowKey applied to a received frame.
func rxFlowKey(f hippi.Frame) int { return FlowKey(f.Src, f.Flow) }

// heldRx is one frame held on the link under resource pressure.
type heldRx struct {
	f        hippi.Frame
	attempts int
}

// rxFrame handles a frame arriving from the media: the MDMA receive engine
// moves it into network memory, computing the receive checksum on the way
// in; the first L bytes are then auto-DMAed to a preallocated host buffer
// and the host is notified (Section 2.2).
func (c *CAB) rxFrame(f hippi.Frame) {
	f.Span.EnterOn(obs.StageMDMA, c.Host)
	f.Span.CritEv(obs.CauseWire, obs.EvWireRx)
	c.Led.TouchP(f.Span, 0, units.Size(len(f.Data)), ledger.MDMARx, obs.LayerMDMA, 0)
	if c.Arb != nil {
		c.rxFrameArb(f)
		return
	}
	// Preserve arrival order: never overtake frames already held.
	if len(c.rxHold) == 0 && c.tryRx(f) {
		return
	}
	c.rxHold = append(c.rxHold, heldRx{f: f})
	if !c.rxHoldArmed {
		c.rxHoldArmed = true
		c.eng.AfterKind(rxRetryDelay, sim.KindTimer, c.rxHoldPumpFn)
	}
}

// rxFrameArb is rxFrame under the netmem arbiter: held frames form one
// FIFO *per flow* served round-robin, so a flow wedged on its quota delays
// only its own successors. Per-flow arrival order is still strict — the
// sequence-gap deadlock the global FIFO guards against is a per-flow
// property — while cross-flow reordering is harmless.
func (c *CAB) rxFrameArb(f hippi.Frame) {
	key := rxFlowKey(f)
	q := c.rxHoldQ[key]
	if len(q) == 0 && c.tryRx(f) {
		return
	}
	if len(q) == 0 {
		c.rxHoldFlows = append(c.rxHoldFlows, key)
	}
	c.rxHoldQ[key] = append(q, heldRx{f: f})
	if !c.rxHoldArmed {
		c.rxHoldArmed = true
		c.eng.AfterKind(rxRetryDelay, sim.KindTimer, c.rxHoldPumpFn)
	}
}

// rxHoldPump retries held frames after rxRetryDelay.
func (c *CAB) rxHoldPump() {
	if c.Arb != nil {
		c.rxHoldPumpArb()
		return
	}
	for len(c.rxHold) > 0 {
		h := &c.rxHold[0]
		if c.tryRx(h.f) {
			// The frame was held on the link waiting for adaptor memory.
			h.f.Span.CritEv(obs.CauseNetmem, obs.EvRxAdmit)
			c.rxHold = c.rxHold[1:]
			continue
		}
		c.Stats.RxRetries++
		if h.attempts++; h.attempts >= rxRetryLimit {
			if c.rxBufs.Len() == 0 {
				c.Stats.DropNoBuf++
			} else {
				c.Stats.DropNoMem++
			}
			c.rxHold = c.rxHold[1:]
			continue
		}
		c.eng.AfterKind(rxRetryDelay, sim.KindTimer, c.rxHoldPumpFn)
		return
	}
	c.rxHoldArmed = false
}

// rxHoldPumpArb services the per-flow hold queues: one attempt per flow
// head per tick, visiting flows in circular order from a rotating start so
// freed memory is offered to each flow in turn. The order is a snapshot,
// since served flows leave rxHoldFlows during the visit; it lives in
// rxOrder, which nothing else touches: tryRx never runs a pump, which only
// ever runs as its own timer event.
func (c *CAB) rxHoldPumpArb() {
	if n := len(c.rxHoldFlows); n > 0 {
		if c.rxRR >= n {
			c.rxRR %= n
		}
		order := append(c.rxOrder[:0], c.rxHoldFlows[c.rxRR:]...)
		order = append(order, c.rxHoldFlows[:c.rxRR]...)
		c.rxOrder = order
		c.rxRR++
		for _, flow := range order {
			q := c.rxHoldQ[flow]
			if len(q) == 0 {
				continue
			}
			h := &q[0]
			if c.tryRx(h.f) {
				h.f.Span.CritEv(obs.CauseNetmem, obs.EvRxAdmit)
			} else {
				c.Stats.RxRetries++
				if h.attempts++; h.attempts < rxRetryLimit {
					continue
				}
				if c.rxBufs.Len() == 0 {
					c.Stats.DropNoBuf++
				} else {
					c.Stats.DropNoMem++
				}
			}
			q[0] = heldRx{}
			if q = q[1:]; len(q) == 0 {
				delete(c.rxHoldQ, flow)
				for i, fl := range c.rxHoldFlows {
					if fl == flow {
						c.rxHoldFlows = append(c.rxHoldFlows[:i], c.rxHoldFlows[i+1:]...)
						break
					}
				}
			} else {
				c.rxHoldQ[flow] = q
			}
		}
	}
	if len(c.rxHoldFlows) > 0 {
		c.eng.AfterKind(rxRetryDelay, sim.KindTimer, c.rxHoldPumpFn)
		return
	}
	c.rxHoldArmed = false
}

// tryRx attempts to accept one frame into the adaptor; it reports false
// when a required resource (rx buffer, network memory) is missing or the
// netmem arbiter denies the flow's staging allocation.
func (c *CAB) tryRx(f hippi.Frame) bool {
	n := units.Size(len(f.Data))
	if c.rxBufs.Len() == 0 {
		return false
	}
	key := rxFlowKey(f)
	var pk *Packet
	ok := false
	if c.Arb == nil || c.Arb.rxAdmit(key, n) {
		// The frame is ours (hippi.Frame): its bytes become the packet's
		// network memory as they are.
		pk, ok = c.allocPacket(n, key, f.Data)
	}
	if !ok {
		// Network memory exhausted. Frames that fit in the auto-DMA
		// buffer (ACKs, control traffic) are delivered straight from it so
		// the protocol keeps making the progress that drains memory;
		// larger frames get the bounded hold-and-retry.
		if n <= c.Cfg.AutoDMALen {
			c.rxDeliverDirect(f)
			return true
		}
		return false
	}
	c.Stats.RxPackets++

	bodySum := c.rxBodySum(pk.buf)
	buf := c.rxBufs.Pop()

	l := c.Cfg.AutoDMALen
	if l > n {
		l = n
	}
	st := c.rxStates.Get()
	*st = rxState{c: c, ev: RxEvent{Pkt: pk, Buf: buf, HdrLen: l, Len: n, BodySum: bodySum, Span: f.Span}}
	st.ev.st = st
	st.scatter[0] = buf[:l]
	st.req = SDMAReq{Dir: ToHost, Pkt: pk, Scatter: st.scatter[:], Span: f.Span, Owner: st}
	c.SDMA(&st.req)
	return true
}

// rxBodySum is the receive checksum engine's partial sum over frame past
// the fixed skip offset (0 for a frame no longer than the skip, or when
// the host ignores the sum), as an injected engine fault leaves it.
func (c *CAB) rxBodySum(frame []byte) uint32 {
	var sum uint32
	if !c.RxSumIgnored && units.Size(len(frame)) > c.Cfg.RxCsumSkip {
		sum = checksum.Sum(frame[c.Cfg.RxCsumSkip:])
	}
	if c.FaultRxCsum != nil {
		sum ^= c.FaultRxCsum()
	}
	return sum
}

// rxState is the adaptor's state for one admitted packet, built once: the
// event the host will be handed and the auto-DMA request that delivers the
// packet's head. It comes from the adaptor's free list and goes back when
// the host is done with the event, or at once when the auto-DMA dies in a
// reset or no host listens.
type rxState struct {
	ev      RxEvent
	c       *CAB
	req     SDMAReq
	scatter [1][]byte
}

// SDMADone: the head is in the host buffer; notify the host.
func (st *rxState) SDMADone(*SDMAReq) {
	c, ev := st.c, &st.ev
	c.Led.TouchP(ev.Span, 0, ev.HdrLen, ledger.SDMAToHost, obs.LayerSDMA, ledger.FlagAutoDMA)
	if c.OnRx == nil {
		ev.Pkt.Free()
		ev.Done()
		return
	}
	c.OnRx(ev)
}

// SDMAFail: a firmware reset killed the auto-DMA; the packet died with the
// adaptor and the host never hears of it.
func (st *rxState) SDMAFail(*SDMAReq) { st.ev.Done() }

// rxDeliverDirect streams a frame that fits in the auto-DMA buffer through
// to the host without staging it in network memory (the netmem-pressure
// fallback). The host sees a normal RxEvent whose Pkt is nil: the whole
// packet is in Buf.
func (c *CAB) rxDeliverDirect(f hippi.Frame) {
	n := units.Size(len(f.Data))
	bodySum := c.rxBodySum(f.Data)
	buf := c.rxBufs.Pop()
	copy(buf, f.Data)
	c.net.Bufs.Put(f.Data)
	c.Stats.RxPackets++
	c.Stats.RxHdrDeliveries++
	span := f.Span
	c.eng.AfterKind(c.Mach.DMATime(n), sim.KindDMA, func() {
		c.Led.TouchP(span, 0, n, ledger.SDMAToHost, obs.LayerSDMA, ledger.FlagAutoDMA)
		span.CritEv(obs.CauseDMA, obs.EvAutoDMA)
		if c.OnRx == nil {
			return
		}
		c.OnRx(&RxEvent{Pkt: nil, Buf: buf, HdrLen: n, Len: n, BodySum: bodySum, Span: span})
	})
}
