package ttcp

import (
	"repro/internal/cab"
	"repro/internal/core"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/units"
)

// Raw-HIPPI benchmark (Section 7.2): "generates well-formed packets that
// can be handled very efficiently by the microcode, so the raw HIPPI
// results represent the highest throughput one can expect for a given
// packet size". The protocol stack is bypassed entirely — the user process
// drives the adaptor: SDMA from a pinned user buffer, then media
// transmission; the receiver SDMAs arriving packets into a user buffer and
// recycles them.
const (
	// rawMaxPacket caps raw packet size at the media MTU's worth.
	rawMaxPacket = 32 * units.KB
	// rawPipeline is how many packet buffers the raw sender keeps in
	// flight to cover SDMA/MDMA pipelining.
	rawPipeline = 4
)

// RunRaw measures a raw transfer of pr.Total bytes in pr.RWSize packets
// (capped at 32 KB) between two NoDriver hosts.
func RunRaw(tb *core.Testbed, snd, rcv *core.Host, pr Params) Result {
	pktSize := pr.RWSize
	if pktSize > rawMaxPacket {
		pktSize = rawMaxPacket
	}

	sndTask := userTask(snd, "raw-snd", pktSize)
	rcvTask := userTask(rcv, "raw-rcv", pktSize)
	m := newMeter(tb, newSide(snd, sndTask), newSide(rcv, rcvTask))

	// HIPPI is connection-oriented with link-level backpressure: a
	// receiver that cannot drain its adaptor stalls the sender. Model it
	// as credit flow control between the two raw endpoints.
	const credits = 16
	outstanding := 0
	credit := sim.NewSignal(tb.Eng)

	// Receiver: SDMA every arriving packet into the user buffer.
	rbuf := rcvTask.Space.Alloc(pktSize, 8)
	copied := sdmaDone(func(req *cab.SDMAReq) {
		pk := req.Pkt
		n := pk.Len()
		pk.Free()
		outstanding--
		credit.Broadcast()
		rcv.K.PostIntr(func(p *sim.Proc) {
			rcv.K.IntrCtx(p).Charge(rcv.K.Mach.InterruptCost/2, kern.CatDriver)
			m.received += n
			if m.received >= pr.Total {
				m.end(p)
			}
		})
	})
	rcv.CAB.OnRx = func(ev *cab.RxEvent) {
		pk := ev.Pkt
		rcv.CAB.SDMA(&cab.SDMAReq{
			Dir: cab.ToHost, Pkt: pk, PktOff: 0,
			Scatter: [][]byte{rbuf.Bytes()[:pk.Len()]},
			Owner:   copied,
		})
		ev.Done()
	}
	for i := 0; i < 16; i++ {
		rcv.CAB.ProvideRxBuf(make([]byte, rcv.CAB.Cfg.AutoDMALen))
	}
	// Recycle auto-DMA buffers as the hardware consumes them.
	tb.Eng.Go("raw-rxbufs", func(p *sim.Proc) {
		for !m.rs.stop {
			for rcv.CAB.RxBufCount() < 16 {
				rcv.CAB.ProvideRxBuf(make([]byte, rcv.CAB.Cfg.AutoDMALen))
			}
			p.Sleep(100 * units.Microsecond)
		}
	})

	// Sender: pinned buffer, pipelined SDMA + MDMA.
	tb.Eng.Go("raw-snd", func(p *sim.Proc) {
		ctx := snd.K.TaskCtx(p, sndTask)
		buf := sndTask.Space.Alloc(pktSize, 8)
		fill(buf.Bytes())
		snd.VM.PinBuf(p, sndTask, sndTask.Space, buf.Addr, buf.Len)
		m.begin(p)

		window := sim.NewSignal(tb.Eng)
		inflight := 0
		sentFrame := func(pk *cab.Packet) {
			pk.Free()
			inflight--
			window.Broadcast()
		}
		formed := sdmaDone(func(req *cab.SDMAReq) {
			snd.CAB.MDMATx(req.Pkt, hippi.NodeID(rcv.Cfg.CABNode), nil, sentFrame)
		})
		for sent := units.Size(0); sent < pr.Total; sent += pktSize {
			for inflight >= rawPipeline {
				window.Wait(p)
			}
			for outstanding >= credits {
				credit.Wait(p)
			}
			outstanding++
			// Minimal per-packet host work: one adaptor request.
			ctx.Charge(snd.K.Mach.DriverPerPacket/2, kern.CatDriver)
			pk := snd.CAB.AllocPacketWait(p, pktSize)
			inflight++
			snd.CAB.SDMA(&cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: [][]byte{buf.Bytes()}, Owner: formed})
		}
		snd.VM.UnpinBuf(p, sndTask, sndTask.Space, buf.Addr, buf.Len)
	})

	return m.run(pr)
}

// sdmaDone is a cab.SDMAOwner made of one function, bound once per run and
// shared by every request of one kind. Raw runs inject no adaptor resets,
// so a killed request is never seen.
type sdmaDone func(req *cab.SDMAReq)

func (f sdmaDone) SDMADone(req *cab.SDMAReq) { f(req) }
func (sdmaDone) SDMAFail(*cab.SDMAReq)       {}
