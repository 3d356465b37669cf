package ttcp

import (
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// UDP mode (ttcp -u): the sender blasts datagrams with no transport flow
// control — the only pacing is the adaptor itself, since with copy
// semantics each sendto returns when the data is outboard. The receiver
// reports what actually arrived; datagrams lost to adaptor memory or
// socket-buffer overflow are part of the result, as with the real tool.
// End of transmission is signaled by a burst of tiny sentinel datagrams,
// as classic ttcp -u did.

// eotLen is the sentinel datagram size.
const eotLen = 4

// UDPResult extends Result with loss accounting.
type UDPResult struct {
	Result
	Sent, Received units.Size
	LossFraction   float64
}

// RunUDP performs a UDP blast from snd to rcv. A send the stack refuses
// (a datagram longer than IPv4 carries) ends the run at once, its error in
// SndErr: the receiver would otherwise wait for sentinels that never come.
func RunUDP(tb *core.Testbed, snd, rcv *core.Host, pr Params) UDPResult {
	// The sender carves its write buffer, then the 8-aligned sentinel.
	ss := newSide(snd, userTask(snd, "ttcp-snd", (pr.RWSize+7)&^7+eotLen))
	rs := newSide(rcv, userTask(rcv, "ttcp-rcv", pr.RWSize))
	m := newMeter(tb, ss, rs)
	var sndErr string

	rx := socket.MustDGram(rcv.K, rcv.VM, rs.ttcpTask, rcv.Stk, udpPort, rcv.SocketConfig())
	tb.Eng.Go("ttcp-udp-rcv", func(p *sim.Proc) {
		buf := rs.ttcpTask.Space.Alloc(pr.RWSize, 8)
		for {
			n, _, _ := rx.RecvFrom(p, buf)
			if n == eotLen {
				break
			}
			m.received += n
			rcv.K.Work(p, rs.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
		}
		m.end(p)
	})

	tb.Eng.Go("ttcp-udp-snd", func(p *sim.Proc) {
		cfg := snd.SocketConfig()
		cfg.UIOThreshold = pr.UIOThreshold
		tx := socket.MustDGram(snd.K, snd.VM, ss.ttcpTask, snd.Stk, 0, cfg)
		m.begin(p)
		buf := ss.ttcpTask.Space.Alloc(pr.RWSize, 8)
		fill(buf.Bytes())
		for sent := units.Size(0); sent < pr.Total; sent += pr.RWSize {
			snd.K.Work(p, ss.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
			if err := tx.SendTo(p, buf, rcv.Cfg.Addr, udpPort); err != nil {
				sndErr = err.Error()
				m.end(p)
				return
			}
		}
		// EOT sentinels (several, in case some are lost).
		eot := ss.ttcpTask.Space.Alloc(eotLen, 8)
		for i := 0; i < 5; i++ {
			tx.SendTo(p, eot, rcv.Cfg.Addr, udpPort)
			p.Sleep(500 * units.Microsecond)
		}
	})

	res := UDPResult{Result: m.run(pr), Sent: pr.Total, Received: m.received}
	if pr.Total > 0 {
		res.LossFraction = 1 - float64(m.received)/float64(pr.Total)
	}
	res.SndErr = sndErr
	return res
}
