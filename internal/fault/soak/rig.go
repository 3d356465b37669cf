package soak

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// rig is the testbed every case runs on: hosts A (sender) and B (receiver)
// on one CAB link, with telemetry, the data-touch ledger and the fault
// injector on, and one user task per host. The workloads report byte
// progress and flow fates here, and the watchdog reads the progress.
type rig struct {
	c      Case
	o      *Outcome // failures, fates and goodput times land here
	tb     *core.Testbed
	inj    *fault.Injector
	a, b   *core.Host
	st, rt *kern.Task

	got, sent units.Size // receiver and sender progress, in bytes
	// done: the workload finished. quiet: a silent window is normal drain
	// (the UDP sender finished).
	done, quiet bool
	ports       []uint16 // each framed sender's local port (= ledger flow id)
}

// newRig builds the testbed for o's case; only a bad fault plan fails it.
func newRig(o *Outcome) (*rig, error) {
	c := o.Case
	tb := core.NewTestbed(c.Seed)
	if c.CheckPools {
		tb.CheckPools()
	}
	tb.Record(core.Recorders{Telemetry: true, Ledger: true, EngObs: c.EngObs})
	r := &rig{c: c, o: o, tb: tb, inj: fault.New(tb.Eng, c.Seed)}
	if c.Plan != "" {
		if err := r.inj.AddPlan(c.Plan); err != nil {
			return nil, err
		}
	}
	tb.EnableFaults(r.inj)
	var arb *cab.ArbConfig
	if c.Arbiter {
		arb = &cab.ArbConfig{}
	}
	r.a = tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: c.Mode, CABNode: 1, Arbiter: arb})
	r.b = tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: c.Mode, CABNode: 2, Arbiter: arb})
	tb.RouteCAB(r.a, r.b)
	r.st = r.a.NewUserTask("soak-snd", 0)
	r.rt = r.b.NewUserTask("soak-rcv", 0)
	return r, nil
}

// run starts the progress watchdog after the workload's procs, drives the
// engine until it drains or the watchdog stops it, and tears every proc
// down. A wedge fails the case, naming the procs left parked, and run
// returns the flight-recorder dump so the stall is diagnosable from the
// outcome alone; after a drained run it returns nil.
func (r *rig) run() (flightRec []byte) {
	// A full window with no byte-level progress while the workload is
	// still running is a wedge: recovery must end in bytes or in a clean
	// error, never in silence.
	stuck := false
	r.tb.Eng.Go("soak-watchdog", func(p *sim.Proc) {
		last := units.Size(0)
		for {
			p.Sleep(watchWindow)
			if r.done {
				return
			}
			if cur := r.got + r.sent; cur != last {
				last = cur
				continue
			}
			if !r.quiet {
				stuck = true
				r.tb.Eng.Stop()
			}
			return
		}
	})
	r.tb.Eng.Run()
	parked := r.tb.Eng.LiveProcNames()
	r.tb.Eng.KillAll()
	if !stuck {
		return nil
	}
	r.o.failf("progress: no forward progress in %v of virtual time (parked: %v)", watchWindow, parked)
	return r.tb.FlightDump()
}

// deliver counts n bytes handed to a reader; the first to land at or after
// the heal is the first goodput.
func (r *rig) deliver(n units.Size) {
	r.got += n
	if now := r.tb.Eng.Now(); n > 0 && r.o.FirstGoodputAt == 0 && now >= r.o.HealAt {
		r.o.FirstGoodputAt = now
	}
}

// finish marks the TCP workload done.
func (r *rig) finish() {
	r.done = true
	r.o.EndTime = r.tb.Eng.Now()
}

// live applies the case's liveness bounds to one end of a connection.
func (r *rig) live(p *sim.Proc, s *socket.Socket, sender bool) {
	if r.c.KeepAlive {
		s.Conn.SetKeepAlive(p, kaIdle, kaIntvl, kaCount)
	}
	if sender && r.c.UserTimeout > 0 {
		s.Conn.SetUserTimeout(r.c.UserTimeout)
	}
}

// Keepalive tuning: aggressive enough that a dead peer is declared within
// ~1.5s of virtual time, comfortably inside the 5s progress watchdog.
const (
	kaIdle  = 500 * units.Millisecond
	kaIntvl = 250 * units.Millisecond
	kaCount = 3
)

// checkLeaks fails the case for any netmem page still allocated or user
// page still pinned once the run drained, resets included.
func (r *rig) checkLeaks() {
	for _, h := range []*core.Host{r.a, r.b} {
		if free, tot := h.CAB.FreePages(), h.CAB.TotalPages(); free != tot {
			r.o.failf("leak: host %s holds %d netmem pages after drain", h.Name, tot-free)
		}
	}
	for _, t := range []*kern.Task{r.st, r.rt} {
		if n := t.Space.PinnedPages(); n != 0 {
			r.o.failf("leak: task %s holds %d pinned pages after drain", t.Name, n)
		}
	}
}

// checkWire cross-checks the wire's frame counters with the injector.
func (r *rig) checkWire() {
	net, fired, failf := r.tb.Net, &r.inj.Fired, r.o.failf
	if net.Sent+net.Duped != net.Delivered+net.Dropped {
		failf("conservation: frames sent %d + duped %d != delivered %d + dropped %d",
			net.Sent, net.Duped, net.Delivered, net.Dropped)
	}
	if int64(net.Dropped) != fired[fault.Drop]+fired[fault.Partition] {
		// Partitioned frames are wire drops too, but they are accounted to
		// the partition window, never to the per-packet drop schedule (the
		// partition pre-pass returns before per-packet rules advance).
		failf("conservation: wire dropped %d frames but drop faults fired %d and partition ate %d",
			net.Dropped, fired[fault.Drop], fired[fault.Partition])
	}
	if net.DroppedInj+net.DroppedUnattached+net.DroppedFull != net.Dropped {
		// The drop taxonomy must partition the total: every wire drop is
		// either injected (fault/partition) or a detached destination port.
		failf("conservation: drop split inj %d + unattached %d != dropped %d",
			net.DroppedInj, net.DroppedUnattached, net.Dropped)
	}
}

// pattern fills data for the byte-exactness check: every offset of the
// stream (TCP) or every (seq, offset) of a datagram (UDP) has one expected
// value.
func pattern(off units.Size) byte { return byte(3*off + 7) }

// runTCP is the unframed TCP workload: one patterned stream, flow 0.
func (r *rig) runTCP() {
	a, b, st, rt, c := r.a, r.b, r.st, r.rt, &r.c
	r.o.Flows = make([]Fate, 1)
	fl := &r.o.Flows[0]
	lis := b.Stk.Listen(port)
	r.tb.Eng.Go("soak-rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		r.live(p, s, false)
		buf := rt.Space.Alloc(c.RWSize, 8)
		for {
			n, err := s.Read(p, buf)
			for i := units.Size(0); i < n; i++ {
				if w := pattern(r.got + i); buf.Bytes()[i] != w {
					r.o.failf("bytes: offset %d = %#x, want %#x", r.got+i, buf.Bytes()[i], w)
					r.tb.Eng.Stop()
					return
				}
			}
			fl.Delivered += n
			r.deliver(n)
			if err != nil {
				if !errors.Is(err, socket.ErrEOF) {
					fl.RcvErr = err
				}
				r.finish()
				return
			}
		}
	})
	r.tb.Eng.Go("soak-snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			fl.SndErr, fl.sndOp = err, "dial"
			return
		}
		r.live(p, s, true)
		buf := st.Space.Alloc(c.RWSize, 8)
		for r.sent < c.Total {
			n := min(c.RWSize, c.Total-r.sent)
			w := buf.Slice(0, n)
			b := w.Bytes()
			for i := range b {
				b[i] = pattern(r.sent + units.Size(i))
			}
			if err := s.WriteAll(p, w); err != nil {
				fl.SndErr, fl.sndOp = err, fmt.Sprintf("write at %v", r.sent)
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
func (r *rig) runUDP() {
	a, b, st, rt, c, failf := r.a, r.b, r.st, r.rt, &r.c, r.o.failf
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
				failf("bytes: datagram of %d bytes, want %d", n, c.RWSize)
				continue
			}
			seq := binary.BigEndian.Uint64(data)
			if seq >= uint64(nDg) {
				failf("bytes: datagram seq %d out of range [0,%d)", seq, nDg)
				continue
			}
			if seen[seq]++; seen[seq] > 1 && r.inj.Fired[fault.Dup] == 0 {
				failf("bytes: datagram %d delivered twice without a dup fault", seq)
			}
			ok := true
			for i := udpSeqLen; ok && i < len(data); i++ {
				if w := pattern(units.Size(seq)*c.RWSize + units.Size(i)); data[i] != w {
					failf("bytes: datagram %d offset %d = %#x, want %#x", seq, i, data[i], w)
					ok = false
				}
			}
			r.deliver(n)
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

// flowHdrLen prefixes each framed TCP stream with its flow id, so the
// accept loop can pair a connection with its expected byte pattern
// without relying on accept order.
const flowHdrLen = 8

// patternF is flow f's stream pattern — distinct per flow, so cross-flow
// data mixups surface as corruption, not coincidence.
func patternF(f int, off units.Size) byte { return byte(f*131 + 3*int(off) + 7) }

// runFlows is the framed TCP workload: Flows concurrent connections, each
// moving Total patterned bytes behind its flow id, checked byte-exact per
// flow. A side that fails aborts its connection, so the peer sees a RST
// instead of waiting out its own liveness bound.
func (r *rig) runFlows() {
	n := r.c.Flows
	r.o.Flows = make([]Fate, n)
	r.ports = make([]uint16, n)
	left := 2 * n // a reader and a sender per flow
	finish := func() {
		if left--; left == 0 {
			r.finish()
		}
	}
	lis := r.b.Stk.ListenBacklog(port, n+8)
	r.tb.Eng.Go("soak-accept", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			s := r.b.Accept(p, r.rt, lis)
			if s == nil {
				return
			}
			r.live(p, s, false)
			r.tb.Eng.Go(fmt.Sprintf("soak-rcv%d", i), func(p *sim.Proc) {
				defer finish()
				r.readFlow(p, s)
			})
		}
	})
	for f := 0; f < n; f++ {
		r.tb.Eng.Go(fmt.Sprintf("soak-snd%d", f), func(p *sim.Proc) {
			defer finish()
			r.sendFlow(p, f)
		})
	}
}

// readFlow drains one accepted connection: the flow id, then the stream.
func (r *rig) readFlow(p *sim.Proc, s *socket.Socket) {
	buf := r.rt.Space.Alloc(r.c.RWSize, 8)
	var hdr [flowHdrLen]byte
	hb := r.rt.Space.Alloc(flowHdrLen, 8)
	for hoff := units.Size(0); hoff < flowHdrLen; {
		n, err := s.Read(p, hb.Slice(hoff, flowHdrLen-hoff))
		copy(hdr[hoff:], hb.Slice(hoff, n).Bytes())
		hoff += n
		if err != nil && hoff < flowHdrLen {
			// The connection died before the flow id arrived (an early
			// fault can beat the first data segment). With one flow the
			// error is unambiguously flow 0's; with many the identity is
			// lost, which is itself a failure.
			if len(r.o.Flows) == 1 {
				r.o.Flows[0].RcvErr = err
			} else {
				r.o.failf("progress: flow header read: %v", err)
			}
			s.Conn.Abort(r.b.K.TaskCtx(p, r.rt))
			return
		}
	}
	flow := int(binary.BigEndian.Uint64(hdr[:]))
	fl := &r.o.Flows[flow]
	for {
		n, err := s.Read(p, buf)
		for i := units.Size(0); i < n; i++ {
			if want := patternF(flow, fl.Delivered+i); buf.Bytes()[i] != want {
				r.o.failf("bytes: flow %d offset %d = %#x, want %#x", flow, fl.Delivered+i, buf.Bytes()[i], want)
				r.tb.Eng.Stop()
				return
			}
		}
		fl.Delivered += n
		r.deliver(n)
		if err != nil {
			if !errors.Is(err, socket.ErrEOF) {
				fl.RcvErr = err
				s.Conn.Abort(r.b.K.TaskCtx(p, r.rt))
			}
			return
		}
	}
}

// sendFlow dials and writes flow f: its id, then the stream.
func (r *rig) sendFlow(p *sim.Proc, f int) {
	fl := &r.o.Flows[f]
	s, err := r.a.Dial(p, r.st, addrB, port)
	if err != nil {
		fl.SndErr, fl.sndOp = err, "dial"
		return
	}
	r.ports[f] = s.Conn.LocalPort()
	r.live(p, s, true)
	fail := func(op string, err error) {
		fl.SndErr, fl.sndOp = err, op
		s.Conn.Abort(r.a.K.TaskCtx(p, r.st))
	}
	total, rw := r.c.Total, r.c.RWSize
	buf := r.st.Space.Alloc(flowHdrLen+rw, 8)
	binary.BigEndian.PutUint64(buf.Bytes()[:flowHdrLen], uint64(f))
	if err := s.WriteAll(p, buf.Slice(0, flowHdrLen)); err != nil {
		fail("header", err)
		return
	}
	for off := units.Size(0); off < total; {
		n := min(rw, total-off)
		chunk := buf.Slice(flowHdrLen, n)
		b := chunk.Bytes()
		for i := range b {
			b[i] = patternF(f, off+units.Size(i))
		}
		if err := s.WriteAll(p, chunk); err != nil {
			fail(fmt.Sprintf("write at %v", off), err)
			return
		}
		off += n
		r.sent += n
	}
	s.Close(p)
}
