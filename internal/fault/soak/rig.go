package soak

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/obs/engine"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// rig is the testbed every soak and recovery case runs on: hosts A
// (sender) and B (receiver) on one CAB link, with telemetry, the
// data-touch ledger and the fault injector on, and one user task per host.
// The workloads report byte progress here, and the watchdog reads it.
type rig struct {
	name   string // "soak" or "recover": prefixes task and proc names
	tb     *core.Testbed
	led    *ledger.Ledger
	inj    *fault.Injector
	a, b   *core.Host
	st, rt *kern.Task

	got, sent units.Size // receiver and sender progress, in bytes
	// done: the workload finished. quiet: a silent window is normal drain
	// (the UDP sender finished).
	done, quiet bool
}

// newRig builds the testbed for one case; only a bad fault plan fails it.
func newRig(name string, seed int64, plan string, mode socket.Mode, arbiter, checkPools bool, eo *engine.Observer) (*rig, error) {
	tb := core.NewTestbed(seed)
	if eo != nil {
		tb.EnableEngineObs(eo)
	}
	if checkPools {
		tb.CheckPools()
	}
	tb.EnableTelemetry()
	r := &rig{name: name, tb: tb, led: tb.EnableLedger(), inj: fault.New(tb.Eng, seed)}
	if plan != "" {
		if err := r.inj.AddPlan(plan); err != nil {
			return nil, err
		}
	}
	tb.EnableFaults(r.inj)
	var arb *cab.ArbConfig
	if arbiter {
		arb = &cab.ArbConfig{}
	}
	r.a = tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: mode, CABNode: 1, Arbiter: arb})
	r.b = tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: mode, CABNode: 2, Arbiter: arb})
	tb.RouteCAB(r.a, r.b)
	r.st = r.a.NewUserTask(name+"-snd", 0)
	r.rt = r.b.NewUserTask(name+"-rcv", 0)
	return r, nil
}

// run starts the progress watchdog after the workload's procs, drives the
// engine until it drains or the watchdog stops it, and tears every proc
// down. A wedge fails the case, naming the procs left parked, and run
// returns the flight-recorder dump so the stall is diagnosable from the
// outcome alone; after a drained run it returns nil.
func (r *rig) run(failf func(string, ...any)) (flightRec []byte) {
	// A full window with no byte-level progress while the workload is
	// still running is a wedge: recovery must end in bytes or in a clean
	// error, never in silence.
	stuck := false
	r.tb.Eng.Go(r.name+"-watchdog", func(p *sim.Proc) {
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
	failf("progress: no forward progress in %v of virtual time (parked: %v)", watchWindow, parked)
	return r.tb.FlightDump()
}

// checkLeaks fails the case for any netmem page still allocated or user
// page still pinned once the run drained, resets included.
func (r *rig) checkLeaks(failf func(string, ...any)) {
	for _, h := range []*core.Host{r.a, r.b} {
		if free, tot := h.CAB.FreePages(), h.CAB.TotalPages(); free != tot {
			failf("leak: host %s holds %d netmem pages after drain", h.Name, tot-free)
		}
	}
	for _, t := range []*kern.Task{r.st, r.rt} {
		if n := t.Space.PinnedPages(); n != 0 {
			failf("leak: task %s holds %d pinned pages after drain", t.Name, n)
		}
	}
}

// checkWire cross-checks the wire's frame counters with the injector.
func (r *rig) checkWire(failf func(string, ...any)) {
	net, fired := r.tb.Net, &r.inj.Fired
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

// flowHdrLen prefixes each framed TCP stream with its flow id, so the
// accept loop can pair a connection with its expected byte pattern
// without relying on accept order.
const flowHdrLen = 8

// patternF is flow f's stream pattern — distinct per flow, so cross-flow
// data mixups surface as corruption, not coincidence.
func patternF(f int, off units.Size) byte { return byte(f*131 + 3*int(off) + 7) }

// flows is the framed TCP workload: n concurrent connections, each moving
// total patterned bytes behind its flow id, checked byte-exact per flow.
// Each flow ends in a fate: the bytes its reader got and the error, if
// any, each side ended with. A side that fails aborts its connection, so
// the peer sees a RST instead of waiting out its own liveness bound.
type flows struct {
	n         int
	total, rw units.Size
	// keepAlive and userTimeout configure every connection (see
	// RecoverCase).
	keepAlive   bool
	userTimeout units.Time
	// healAt: the first read landing at or after it sets firstGoodput.
	healAt units.Time
	// failf records a failure only the workload itself can see: corrupt
	// bytes, or a many-flow header lost before it named its flow.
	failf func(string, ...any)

	fates        []RecoverFlow
	ports        []uint16 // each sender's local port (= ledger flow id)
	firstGoodput units.Time
	endTime      units.Time // when the last reader or sender finished
}

// start spawns the accept loop and one sender per flow.
func (w *flows) start(r *rig) {
	w.fates = make([]RecoverFlow, w.n)
	w.ports = make([]uint16, w.n)
	left := 2 * w.n // a reader and a sender per flow
	finish := func() {
		if left--; left == 0 {
			r.done = true
			w.endTime = r.tb.Eng.Now()
		}
	}
	lis := r.b.Stk.ListenBacklog(port, w.n+8)
	r.tb.Eng.Go(r.name+"-accept", func(p *sim.Proc) {
		for i := 0; i < w.n; i++ {
			s := r.b.Accept(p, r.rt, lis)
			if s == nil {
				return
			}
			if w.keepAlive {
				s.Conn.SetKeepAlive(p, kaIdle, kaIntvl, kaCount)
			}
			r.tb.Eng.Go(fmt.Sprintf("%s-rcv%d", r.name, i), func(p *sim.Proc) {
				defer finish()
				w.read(p, r, s)
			})
		}
	})
	for f := 0; f < w.n; f++ {
		r.tb.Eng.Go(fmt.Sprintf("%s-snd%d", r.name, f), func(p *sim.Proc) {
			defer finish()
			w.send(p, r, f)
		})
	}
}

// read drains one accepted connection: the flow id, then the stream.
func (w *flows) read(p *sim.Proc, r *rig, s *socket.Socket) {
	buf := r.rt.Space.Alloc(w.rw, 8)
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
			if w.n == 1 {
				w.fates[0].RcvErr = err
			} else {
				w.failf("progress: flow header read: %v", err)
			}
			s.Conn.Abort(r.b.K.TaskCtx(p, r.rt))
			return
		}
	}
	flow := int(binary.BigEndian.Uint64(hdr[:]))
	fl := &w.fates[flow]
	for {
		n, err := s.Read(p, buf)
		for i := units.Size(0); i < n; i++ {
			if want := patternF(flow, fl.Delivered+i); buf.Bytes()[i] != want {
				w.failf("bytes: flow %d offset %d = %#x, want %#x", flow, fl.Delivered+i, buf.Bytes()[i], want)
				r.tb.Eng.Stop()
				return
			}
		}
		fl.Delivered += n
		r.got += n
		if now := r.tb.Eng.Now(); n > 0 && w.firstGoodput == 0 && now >= w.healAt {
			w.firstGoodput = now
		}
		if err != nil {
			if !errors.Is(err, socket.ErrEOF) {
				fl.RcvErr = err
				s.Conn.Abort(r.b.K.TaskCtx(p, r.rt))
			}
			return
		}
	}
}

// send dials and writes flow f: its id, then the stream.
func (w *flows) send(p *sim.Proc, r *rig, f int) {
	fl := &w.fates[f]
	s, err := r.a.Dial(p, r.st, addrB, port)
	if err != nil {
		fl.SndErr, fl.sndOp = err, "dial"
		return
	}
	w.ports[f] = s.Conn.LocalPort()
	if w.keepAlive {
		s.Conn.SetKeepAlive(p, kaIdle, kaIntvl, kaCount)
	}
	if w.userTimeout > 0 {
		s.Conn.SetUserTimeout(w.userTimeout)
	}
	fail := func(op string, err error) {
		fl.SndErr, fl.sndOp = err, op
		s.Conn.Abort(r.a.K.TaskCtx(p, r.st))
	}
	buf := r.st.Space.Alloc(flowHdrLen+w.rw, 8)
	binary.BigEndian.PutUint64(buf.Bytes()[:flowHdrLen], uint64(f))
	if err := s.WriteAll(p, buf.Slice(0, flowHdrLen)); err != nil {
		fail("header", err)
		return
	}
	for off := units.Size(0); off < w.total; {
		n := min(w.rw, w.total-off)
		chunk := buf.Slice(flowHdrLen, n)
		for i := range chunk.Bytes() {
			chunk.Bytes()[i] = patternF(f, off+units.Size(i))
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
