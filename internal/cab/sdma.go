package cab

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// Dir is an SDMA transfer direction.
type Dir int

// SDMA directions.
const (
	// ToCAB moves data from host memory into network memory (transmit).
	ToCAB Dir = iota
	// ToHost moves data from network memory into host memory (receive
	// copy-out and auto-DMA).
	ToHost
)

// SDMAReq is one system-DMA request queued through the register file.
// Completion is signaled to its Owner in hardware (event) context; the
// paper's convention is that only the final request of a burst is flagged
// to raise a host interrupt — raising it is the driver's job in SDMADone.
//
// A request is the owner's storage, usually a field of its per-packet
// state: the engine holds it from SDMA until the owner hears the outcome,
// and the owner may reuse it from inside SDMADone or SDMAFail on.
type SDMAReq struct {
	Dir Dir
	Pkt *Packet

	// ToCAB: Gather lists the host memory segments (header first, then
	// data) whose concatenation forms the packet (or just the new header
	// when HeaderOnly retransmission is used).
	Gather [][]byte
	// HeaderOnly overlays Gather at the start of an existing packet and
	// recomputes the checksum field from the saved body sum (retransmit,
	// Section 4.3).
	HeaderOnly bool

	// Csum engages the transmit checksum engine: it sums the packet body
	// beyond CsumSkip during the transfer, combines it with the 16-bit
	// seed the host placed at CsumOff, and stores the finished checksum
	// there.
	Csum     bool
	CsumOff  units.Size
	CsumSkip units.Size

	// ToHost: copy packet bytes [PktOff, PktOff+len(Scatter bytes)) into
	// the scatter segments.
	PktOff  units.Size
	Scatter [][]byte

	// Owner hears how the request ended (nil: nobody listens).
	Owner SDMAOwner

	// Span, when set, attributes a ToCAB transfer's data touch in the
	// ledger and receives the transfer's critical-path events (engine-queue
	// wait, then DMA occupancy) on the packet's causal chain. A ToHost
	// transfer's touch is its owner's to record, in SDMADone: only the
	// owner knows whether the bytes are the adaptor's automatic head
	// delivery or a host copy-out.
	Span *obs.Span

	// retries counts consecutive failed attempts under fault injection.
	retries int
	// gen is Pkt's generation when the request was queued.
	gen uint32
}

// SDMAOwner is told, in hardware context, how each of its requests ended:
// SDMADone at completion, or SDMAFail when a firmware reset killed the
// descriptor (queued, in service, or posted against an already-wiped
// packet). Exactly one of the two runs per request.
type SDMAOwner interface {
	SDMADone(req *SDMAReq)
	SDMAFail(req *SDMAReq)
}

// maxSDMARetries bounds consecutive failed attempts of one request; a
// fault plan that fails the same transfer this many times is declared
// persistent (the simulated hardware would be dead, not faulty).
const maxSDMARetries = 64

func (r *SDMAReq) bytes() units.Size {
	var n units.Size
	if r.Dir == ToCAB {
		for _, g := range r.Gather {
			n += units.Size(len(g))
		}
	} else {
		for _, s := range r.Scatter {
			n += units.Size(len(s))
		}
	}
	return n
}

// SDMA queues a system-DMA request. Requests execute in FIFO order on the
// single SDMA engine; each occupies the IO bus for the machine's DMA time.
func (c *CAB) SDMA(req *SDMAReq) {
	if req.Pkt == nil {
		panic("cab: SDMA on nil packet")
	}
	if req.Pkt.zapped {
		// The packet was wiped by a firmware reset after the host decided
		// to post this descriptor; fail it immediately.
		c.killSDMA(req)
		return
	}
	if req.Pkt.freed {
		panic("cab: SDMA on freed packet")
	}
	req.gen = req.Pkt.gen
	c.sdmaQ.Put(req)
}

// sdmaNext is the SDMA engine, one transfer at a time, as a continuation
// on the event loop: it starts the oldest queued request, or waits for
// one. A transfer occupies the IO bus for the machine's DMA time, after
// which sdmaDone ends it and starts the next. The two steps schedule the
// events a process looping on Queue.Get and Sleep would, at the same
// points, so every transfer keeps its time and sequence number.
func (c *CAB) sdmaNext() {
	req, ok := c.sdmaQ.TryGet()
	if !ok {
		c.sdmaQ.WaitFunc(c.sdmaNextFn)
		return
	}
	req.Span.CritEv(obs.CauseQueue, obs.EvSDMAStart)
	c.sdmaCur = req
	c.eng.AfterKind(c.Mach.DMATime(req.bytes()), sim.KindProc, c.sdmaDoneFn)
}

// sdmaDone ends the transfer in service once its bus time has elapsed.
func (c *CAB) sdmaDone() {
	req := c.sdmaCur
	c.sdmaCur = nil
	switch {
	case req.Pkt.zapped:
		// A firmware reset wiped the packet while the transfer occupied
		// the bus: the descriptor dies with the adaptor state.
		c.killSDMA(req)
	case !req.Pkt.Live(req.gen):
		// The packet's owner released it under a queued transfer: an
		// ownership bug, caught before the engine writes a recycled
		// packet's memory.
		panic("cab: packet freed while its SDMA was queued")
	case c.FaultSDMA != nil && c.FaultSDMA():
		// The transfer failed after occupying the bus; requeue it.
		// Completion (Done) fires only on success, so owners never see
		// a half-finished transfer.
		c.Stats.SDMAFails++
		req.retries++
		if req.retries > maxSDMARetries {
			panic("cab: SDMA fault persisted past retry limit")
		}
		c.sdmaQ.Put(req)
	default:
		req.retries = 0
		c.Stats.SDMAOps++
		c.Stats.SDMABytes += req.bytes()
		switch req.Dir {
		case ToCAB:
			c.performToCAB(req)
			if !req.HeaderOnly {
				var fl ledger.Flags
				if req.Csum {
					fl = ledger.FlagCsumFlight
				}
				c.Led.TouchP(req.Span, 0, req.Pkt.Len(), ledger.SDMAToNet, ledger.LayerSDMA, fl)
			}
		case ToHost:
			c.performToHost(req)
		}
		req.Span.CritEv(obs.CauseDMA, obs.EvSDMADone)
		if req.Owner != nil {
			req.Owner.SDMADone(req)
		}
	}
	c.sdmaNext()
}

func (c *CAB) performToCAB(req *SDMAReq) {
	pk := req.Pkt
	off := units.Size(0)
	for _, g := range req.Gather {
		n := units.Size(copy(pk.buf[off:], g))
		if n != units.Size(len(g)) {
			panic(fmt.Sprintf("cab: gather overflow at %v into %v-byte packet", off, pk.Len()))
		}
		off += n
	}
	if !req.HeaderOnly && off != pk.Len() {
		panic(fmt.Sprintf("cab: packet not fully formed: %v of %v bytes", off, pk.Len()))
	}
	if !req.Csum {
		return
	}
	if req.CsumSkip%2 != 0 || req.CsumOff+2 > pk.Len() || req.CsumOff+2 > req.CsumSkip {
		panic(fmt.Sprintf("cab: bad checksum geometry off=%v skip=%v", req.CsumOff, req.CsumSkip))
	}
	if req.HeaderOnly {
		// Retransmission: new header, saved body sum (Section 4.3).
		if !pk.HasBodySum {
			panic("cab: header-only SDMA with no saved body checksum")
		}
		c.Stats.RetransmitOverlays++
	} else {
		pk.BodySum = checksum.Sum(pk.buf[req.CsumSkip:])
		if c.FaultTxCsum != nil {
			// Checksum-engine miscomputation: the saved body sum (and so
			// the wire checksum, here and on every header-only overlay
			// retransmit that reuses it) is wrong until the driver falls
			// back to a fresh multi-copy send.
			pk.BodySum ^= c.FaultTxCsum()
		}
		pk.HasBodySum = true
	}
	seed := uint32(pk.buf[req.CsumOff])<<8 | uint32(pk.buf[req.CsumOff+1])
	final := checksum.Finish(checksum.Add(seed, pk.BodySum))
	pk.buf[req.CsumOff] = byte(final >> 8)
	pk.buf[req.CsumOff+1] = byte(final)
}

func (c *CAB) performToHost(req *SDMAReq) {
	pk := req.Pkt
	off := req.PktOff
	for _, s := range req.Scatter {
		n := units.Size(copy(s, pk.buf[off:]))
		if n != units.Size(len(s)) {
			panic(fmt.Sprintf("cab: scatter underrun at %v of %v-byte packet", off, pk.Len()))
		}
		off += n
	}
}
