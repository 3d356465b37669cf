// Package soak runs full end-to-end transfers under adversarial fault
// plans and checks the recovery invariants that make fault injection
// meaningful: byte-exact delivery, zero resource leaks, forward progress,
// and counter conservation. Every case is seeded and deterministic — a
// failing case replays exactly from its (plan, seed) pair.
package soak

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	port  = 5001

	// watchWindow is the progress watchdog's sampling period. It must
	// exceed the worst-case quiet stretch of a healthy run (a maximal
	// 2s RTO backoff), so a window with no progress means a wedge.
	watchWindow = 5 * units.Second
)

// Case is one soak scenario: a transfer shape plus a fault plan.
type Case struct {
	Name string
	// Plan is the fault plan spec (see fault.ParsePlan); "" runs clean.
	Plan string
	Seed int64
	// Proto is "tcp" or "udp".
	Proto string
	Mode  socket.Mode
	// Total and RWSize shape the transfer; zero values pick defaults
	// (1 MB / 64 KB for TCP, 512 KB / 16 KB for UDP). With Flows > 1,
	// Total is per flow.
	Total, RWSize units.Size
	// Flows > 1 runs that many concurrent TCP connections (each moving
	// Total bytes with its own byte pattern); the audit then checks every
	// flow separately in loose mode.
	Flows int
	// Arbiter installs the per-flow netmem arbiter on both hosts.
	Arbiter bool
	// EngObs, when set, attaches the simulator meta-observer to the
	// case's engine (simbench runs the whole matrix through one observer).
	EngObs *engine.Observer
	// CheckPools runs the case with every free list in check mode (the
	// ownership harness; see core.Testbed.CheckPools).
	CheckPools bool
}

// Outcome is a finished soak case. Failures lists every violated
// invariant; an empty list means the case passed.
type Outcome struct {
	Case      Case
	Delivered units.Size
	Report    string
	Failures  []string
	// MetricsJSON is the run's telemetry snapshot, the determinism
	// oracle: the same case must reproduce it byte for byte.
	MetricsJSON []byte
	// FlightRec is the flight-recorder image (recent ledger and trace
	// events per host), dumped only when the watchdog declared the run
	// stuck; nil otherwise.
	FlightRec []byte
	// A (sender) and B (receiver) stay readable after the run so callers
	// can assert on protocol and hardware counters.
	A, B *core.Host
}

func (o *Outcome) failf(format string, args ...any) {
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// Run executes one soak case.
func Run(c Case) Outcome {
	if c.Total == 0 {
		if c.Proto == "udp" {
			c.Total = 512 * units.KB
		} else {
			c.Total = 1 * units.MB
		}
	}
	if c.RWSize == 0 {
		if c.Proto == "udp" {
			c.RWSize = 16 * units.KB
		} else {
			c.RWSize = 64 * units.KB
		}
	}
	o := Outcome{Case: c}
	r, err := newRig("soak", c.Seed, c.Plan, c.Mode, c.Arbiter, c.CheckPools, c.EngObs)
	if err != nil {
		o.failf("plan: %v", err)
		return o
	}
	o.A, o.B = r.a, r.b

	var w *flows
	switch {
	case c.Proto == "udp":
		r.runUDP(c, &o)
	case c.Flows > 1:
		w = &flows{n: c.Flows, total: c.Total, rw: c.RWSize, failf: o.failf}
		w.start(r)
	default:
		r.runTCP(c, &o)
	}
	flightRec := r.run(o.failf)
	o.Delivered = r.got
	o.Report = r.inj.Report()
	o.MetricsJSON = r.tb.Tel.Snapshot().JSON()
	// Invariant: progress. Everything below assumes a drained run.
	if flightRec != nil {
		o.FlightRec = flightRec
		return o
	}
	r.checkLeaks(o.failf)
	r.checkWire(o.failf)
	r.checkConservation(&o)

	// Invariant: no path silently gains or loses a data touch during
	// recovery. A clean run must show exactly its stack's Table 1 cells;
	// faulted runs get the documented retransmit allowance (loose mode).
	// UDP transfers tolerate loss by design, so per-byte stream coverage
	// does not apply.
	tx, rx := c.Mode.Cells()
	if c.Proto == "tcp" && w == nil {
		err := r.tb.Led.AssertCell(tx, rx, ledger.AuditConfig{
			Flow: r.tb.Led.MainFlow(), Total: c.Total,
			SndHost: "A", RcvHost: "B", Strict: c.Plan == "",
		})
		if err != nil {
			o.FlightRec = r.tb.FlightDump()
			o.failf("audit: %v", err)
		}
	}
	if w == nil {
		return o
	}
	// Many-flow runs hold every flow to its fate and audit each one
	// separately, always in loose mode: concurrent flows contend for
	// netmem, so any flow may retransmit even on a clean plan. Each
	// sender's local port is its ledger flow.
	for f, fl := range w.fates {
		if fl.SndErr != nil {
			o.failf("progress: flow %d %s: %v", f, fl.sndOp, fl.SndErr)
		}
		if fl.Delivered != c.Total {
			o.failf("bytes: flow %d delivered %d of %d", f, fl.Delivered, c.Total)
		}
		fp := w.ports[f]
		if err := r.tb.Led.AssertCell(tx, rx, ledger.AuditConfig{Flow: int(fp), Total: c.Total + flowHdrLen, SndHost: "A", RcvHost: "B"}); err != nil {
			o.failf("audit: flow %d (port %d): %v", f, fp, err)
		}
	}
	return o
}

// pattern fills data for the byte-exactness check: every offset of the
// stream (TCP) or every (seq, offset) of a datagram (UDP) has one expected
// value.
func pattern(off units.Size) byte { return byte(3*off + 7) }

// runTCP is the single-flow TCP workload: one unframed patterned stream.
func (r *rig) runTCP(c Case, o *Outcome) {
	a, b, st, rt := r.a, r.b, r.st, r.rt
	lis := b.Stk.Listen(port)
	r.tb.Eng.Go("soak-rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(c.RWSize, 8)
		for {
			n, err := s.Read(p, buf)
			for i := units.Size(0); i < n; i++ {
				if w := pattern(r.got + i); buf.Bytes()[i] != w {
					o.failf("bytes: offset %d = %#x, want %#x", r.got+i, buf.Bytes()[i], w)
					r.tb.Eng.Stop()
					return
				}
			}
			r.got += n
			if err != nil {
				r.done = true
				return
			}
		}
	})
	r.tb.Eng.Go("soak-snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			o.failf("progress: dial: %v", err)
			return
		}
		buf := st.Space.Alloc(c.RWSize, 8)
		for r.sent < c.Total {
			n := min(c.RWSize, c.Total-r.sent)
			w := buf.Slice(0, n)
			b := w.Bytes()
			for i := range b {
				b[i] = pattern(r.sent + units.Size(i))
			}
			if err := s.WriteAll(p, w); err != nil {
				o.failf("progress: write at %v: %v", r.sent, err)
				return
			}
			r.sent += n
		}
		s.Close(p)
	})
}

// udpSeqLen prefixes each datagram with its sequence number, so the
// receiver can verify payload integrity per datagram and detect
// duplicates, without relying on ordered or complete delivery.
const udpSeqLen = 8

// runUDP is the UDP workload: a blast of sequence-numbered patterned
// datagrams.
func (r *rig) runUDP(c Case, o *Outcome) {
	a, b, st, rt := r.a, r.b, r.st, r.rt
	nDg := int(c.Total / c.RWSize)
	seen := make(map[uint64]int)
	rx := socket.MustDGram(b.K, b.VM, rt, b.Stk, port, b.SocketConfig())
	r.tb.Eng.Go("soak-udp-rcv", func(p *sim.Proc) {
		buf := rt.Space.Alloc(c.RWSize, 8)
		for {
			n, _, _ := rx.RecvFrom(p, buf)
			if n == 0 {
				return
			}
			data := buf.Slice(0, n).Bytes()
			if n != c.RWSize {
				o.failf("bytes: datagram of %d bytes, want %d", n, c.RWSize)
				continue
			}
			seq := binary.BigEndian.Uint64(data)
			if seq >= uint64(nDg) {
				o.failf("bytes: datagram seq %d out of range [0,%d)", seq, nDg)
				continue
			}
			if seen[seq]++; seen[seq] > 1 && r.inj.Fired[fault.Dup] == 0 {
				o.failf("bytes: datagram %d delivered twice without a dup fault", seq)
			}
			ok := true
			for i := udpSeqLen; ok && i < len(data); i++ {
				if w := pattern(units.Size(seq)*c.RWSize + units.Size(i)); data[i] != w {
					o.failf("bytes: datagram %d offset %d = %#x, want %#x", seq, i, data[i], w)
					ok = false
				}
			}
			r.got += n
		}
	})
	r.tb.Eng.Go("soak-udp-snd", func(p *sim.Proc) {
		defer func() { r.quiet = true }()
		tx := socket.MustDGram(a.K, a.VM, st, a.Stk, 0, a.SocketConfig())
		buf := st.Space.Alloc(c.RWSize, 8)
		for seq := 0; seq < nDg; seq++ {
			data := buf.Bytes()
			binary.BigEndian.PutUint64(data, uint64(seq))
			for i := udpSeqLen; i < len(data); i++ {
				data[i] = pattern(units.Size(seq)*c.RWSize + units.Size(i))
			}
			tx.SendTo(p, buf, addrB, port)
			r.sent += c.RWSize
		}
	})
}

// checkConservation cross-checks the fault ledger against protocol and
// hardware counters: every injected fault must be visible in, and
// consistent with, what the stacks observed.
func (r *rig) checkConservation(o *Outcome) {
	a, b, inj := r.a, r.b, r.inj
	if inj.Fired[fault.Dup] > 0 && r.tb.Net.Duped == 0 {
		o.failf("conservation: dup faults fired %d but no frame was duplicated", inj.Fired[fault.Dup])
	}

	csumSeen := a.Stk.Stats.TCPCsumErrors + b.Stk.Stats.TCPCsumErrors +
		a.Stk.Stats.UDPCsumErrors + b.Stk.Stats.UDPCsumErrors
	if inj.Fired[fault.Corrupt] > 0 && csumSeen == 0 {
		o.failf("conservation: %d corruptions injected but no checksum error detected",
			inj.Fired[fault.Corrupt])
	}
	if inj.Fired[fault.RxCsum] > 0 && csumSeen == 0 {
		o.failf("conservation: %d rx-checksum faults injected but none detected",
			inj.Fired[fault.RxCsum])
	}
	if inj.Fired[fault.TxCsum] > 0 && csumSeen == 0 {
		o.failf("conservation: %d tx-checksum faults injected but none detected",
			inj.Fired[fault.TxCsum])
	}
	if inj.Fired[fault.DMAFail] > 0 && a.CAB.Stats.SDMAFails+b.CAB.Stats.SDMAFails == 0 {
		o.failf("conservation: DMA faults fired but no SDMA failure recorded")
	}
	if inj.Fired[fault.AllocFail] > 0 && a.K.AllocFailures+b.K.AllocFailures == 0 {
		o.failf("conservation: alloc faults fired but no allocation failure recorded")
	}
	if inj.Fired[fault.Netmem] > 0 &&
		a.CAB.Stats.RxRetries+b.CAB.Stats.RxRetries+
			a.CAB.Stats.RxHdrDeliveries+b.CAB.Stats.RxHdrDeliveries+
			a.CAB.Stats.ArbWaits+b.CAB.Stats.ArbWaits == 0 {
		// Under the arbiter, memory pressure surfaces as tx-admission waits
		// rather than rx-side retries, so both count as evidence.
		o.failf("conservation: netmem pressure applied but no backpressure recorded")
	}

	if o.Case.Proto == "tcp" {
		// Any delivery-disturbing fault must surface as retransmissions,
		// and with the single-copy stack those retransmissions must come
		// from outboard memory (overlay) or the fallback re-read.
		lossy := inj.Fired[fault.Drop] + inj.Fired[fault.Corrupt] +
			inj.Fired[fault.RxCsum] + inj.Fired[fault.TxCsum]
		if lossy > 0 && a.Stk.Stats.TCPRetransmits == 0 {
			o.failf("conservation: %d delivery faults but no TCP retransmission", lossy)
		}
		if o.Case.Mode == socket.ModeSingleCopy && a.Stk.Stats.TCPRetransmits > 0 &&
			a.Drv.Stats.TxOverlays+a.Drv.Stats.TxFallbackReads == 0 {
			o.failf("conservation: %d retransmits but no overlay or fallback read",
				a.Stk.Stats.TCPRetransmits)
		}
		want := o.Case.Total
		if o.Case.Flows > 1 {
			want = o.Case.Total * units.Size(o.Case.Flows)
		}
		if o.Delivered != want {
			o.failf("bytes: delivered %v of %v", o.Delivered, want)
		}
	} else {
		// UDP: losses are legal, silence is not. Every sent datagram is
		// either delivered or accounted for by a drop/corruption counter.
		sentDg := a.Stk.Stats.UDPOut
		rcvdDg := b.Stk.Stats.UDPIn
		accounted := int(inj.Fired[fault.Drop]) +
			b.Stk.Stats.UDPCsumErrors + b.Stk.Stats.UDPRcvFull +
			b.CAB.Stats.DropNoMem + b.CAB.Stats.DropNoBuf +
			b.Stk.Stats.IPReassTimeouts
		if rcvdDg > sentDg+int(inj.Fired[fault.Dup]) {
			o.failf("conservation: received %d datagrams, sent only %d (+%d dups)",
				rcvdDg, sentDg, inj.Fired[fault.Dup])
		}
		if rcvdDg+accounted < sentDg {
			o.failf("conservation: %d datagrams unaccounted for (sent %d, received %d, accounted %d)",
				sentDg-rcvdDg-accounted, sentDg, rcvdDg, accounted)
		}
	}
}

// Matrix is the full adversarial soak suite: every fault surface, both
// protocols, both stack modes, and a combined-plan stress case. TCP plans
// carry min=200 so the handshake survives; UDP data plans use min=1000.
func Matrix() []Case {
	sc := socket.ModeSingleCopy
	um := socket.ModeUnmodified
	return []Case{
		{Name: "tcp-clean", Plan: "", Seed: 1, Proto: "tcp", Mode: sc},
		{Name: "tcp-drop", Plan: "drop:every=13,min=200", Seed: 2, Proto: "tcp", Mode: sc},
		{Name: "tcp-drop-burst", Plan: "drop:burst=10+6,min=200", Seed: 3, Proto: "tcp", Mode: sc},
		{Name: "tcp-corrupt", Plan: "corrupt:every=11,min=200", Seed: 4, Proto: "tcp", Mode: sc},
		{Name: "tcp-dup", Plan: "dup:every=7,min=200", Seed: 5, Proto: "tcp", Mode: sc},
		{Name: "tcp-reorder", Plan: "reorder:every=7,min=1000,delay=3ms", Seed: 6, Proto: "tcp", Mode: sc},
		{Name: "tcp-delay", Plan: "delay:p=0.2,min=200", Seed: 7, Proto: "tcp", Mode: sc},
		{Name: "tcp-dmafail", Plan: "dmafail:every=23", Seed: 8, Proto: "tcp", Mode: sc},
		{Name: "tcp-txcsum", Plan: "txcsum:every=31", Seed: 9, Proto: "tcp", Mode: sc},
		{Name: "tcp-rxcsum", Plan: "rxcsum:every=29", Seed: 10, Proto: "tcp", Mode: sc},
		{Name: "tcp-netmem", Plan: "netmem:at=2ms,until=10ms", Seed: 11, Proto: "tcp", Mode: sc},
		{Name: "tcp-allocfail", Plan: "allocfail:every=17", Seed: 12, Proto: "tcp", Mode: sc},
		{Name: "tcp-combined", Seed: 13, Proto: "tcp", Mode: sc,
			Plan: "drop:every=11,min=200;corrupt:every=13,min=200;dup:every=17,min=200;delay:p=0.1,min=200"},
		{Name: "tcp-64flow-drop", Plan: "drop:every=29,min=500", Seed: 31, Proto: "tcp", Mode: sc,
			Flows: 64, Arbiter: true, Total: 64 * units.KB, RWSize: 16 * units.KB},
		{Name: "tcp-64flow-netmem", Plan: "netmem:at=2ms,until=10ms", Seed: 32, Proto: "tcp", Mode: sc,
			Flows: 64, Arbiter: true, Total: 64 * units.KB, RWSize: 16 * units.KB},
		{Name: "tcp-unmod-drop", Plan: "drop:every=13,min=200", Seed: 14, Proto: "tcp", Mode: um},
		{Name: "tcp-unmod-corrupt", Plan: "corrupt:every=11,min=200", Seed: 15, Proto: "tcp", Mode: um},
		{Name: "udp-clean", Plan: "", Seed: 16, Proto: "udp", Mode: sc},
		{Name: "udp-drop", Plan: "drop:every=5,min=1000", Seed: 17, Proto: "udp", Mode: sc},
		{Name: "udp-corrupt", Plan: "corrupt:every=4,min=1000", Seed: 18, Proto: "udp", Mode: sc},
		{Name: "udp-dup", Plan: "dup:every=6,min=1000", Seed: 19, Proto: "udp", Mode: sc},
		{Name: "udp-reorder", Plan: "reorder:every=5,min=1000", Seed: 20, Proto: "udp", Mode: sc},
		{Name: "udp-allocfail", Plan: "allocfail:every=13", Seed: 21, Proto: "udp", Mode: sc},
		{Name: "udp-unmod-drop", Plan: "drop:every=5,min=1000", Seed: 22, Proto: "udp", Mode: um},
	}
}
