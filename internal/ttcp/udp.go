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

// RunUDP performs a UDP blast from snd to rcv.
func RunUDP(tb *core.Testbed, snd, rcv *core.Host, pr Params) UDPResult {
	ss := &side{h: snd}
	// The sender carves its write buffer, then the 8-aligned sentinel.
	ss.ttcpTask = userTask(snd, "ttcp-snd", (pr.RWSize+7)&^7+eotLen)
	ss.utilTask = snd.K.NewTask("util", kern.PrioIdle, nil)
	ss.bgdTask = snd.K.NewTask("bgd", kern.PrioKern, nil)
	rs := &side{h: rcv}
	rs.ttcpTask = userTask(rcv, "ttcp-rcv", pr.RWSize)
	rs.utilTask = rcv.K.NewTask("util", kern.PrioIdle, nil)
	rs.bgdTask = rcv.K.NewTask("bgd", kern.PrioKern, nil)

	var (
		t0, t1   units.Time
		received units.Size
	)
	snd0, rcv0 := ss.times(), rs.times()

	rx := socket.MustDGram(rcv.K, rcv.VM, rs.ttcpTask, rcv.Stk, udpPort, rcv.SocketConfig())
	tb.Eng.Go("ttcp-udp-rcv", func(p *sim.Proc) {
		buf := rs.ttcpTask.Space.Alloc(pr.RWSize, 8)
		for {
			n, _, _ := rx.RecvFrom(p, buf)
			if n == eotLen {
				break
			}
			received += n
			rcv.K.Work(p, rs.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
		}
		t1 = p.Now()
		ss.stop, rs.stop = true, true
		tb.StopSeries()
	})

	tb.Eng.Go("ttcp-udp-snd", func(p *sim.Proc) {
		cfg := snd.SocketConfig()
		cfg.UIOThreshold = pr.UIOThreshold
		tx := socket.MustDGram(snd.K, snd.VM, ss.ttcpTask, snd.Stk, 0, cfg)
		t0 = p.Now()
		snd0, rcv0 = ss.times(), rs.times()
		buf := ss.ttcpTask.Space.Alloc(pr.RWSize, 8)
		fill(buf.Bytes())
		for sent := units.Size(0); sent < pr.Total; sent += pr.RWSize {
			snd.K.Work(p, ss.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
			tx.SendTo(p, buf, rcv.Cfg.Addr, udpPort)
		}
		// EOT sentinels (several, in case some are lost).
		eot := ss.ttcpTask.Space.Alloc(eotLen, 8)
		for i := 0; i < 5; i++ {
			tx.SendTo(p, eot, rcv.Cfg.Addr, udpPort)
			p.Sleep(500 * units.Microsecond)
		}
	})

	if pr.WithUtil {
		ss.startUtil()
		rs.startUtil()
	}
	if pr.WithBackground {
		ss.startBackground(tb)
		rs.startBackground(tb)
	}

	tb.Eng.Run()
	tb.Eng.KillAll()

	elapsed := t1 - t0
	res := UDPResult{
		Result: Result{
			Bytes:      received,
			Elapsed:    elapsed,
			Throughput: units.RateOf(received, elapsed),
		},
		Sent:     pr.Total,
		Received: received,
	}
	if pr.Total > 0 {
		res.LossFraction = 1 - float64(received)/float64(pr.Total)
	}
	res.Snd = ss.snapshot(elapsed, res.Throughput, snd0)
	res.Rcv = rs.snapshot(elapsed, res.Throughput, rcv0)
	return res
}
