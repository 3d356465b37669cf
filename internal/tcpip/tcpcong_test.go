package tcpip

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

func TestFastRetransmitRecoversWithoutTimeout(t *testing.T) {
	r := newRig(t, 40)
	// Drop exactly one mid-stream data segment; the duplicate ACKs from
	// subsequent segments must trigger fast retransmission well before
	// the retransmission timer would fire.
	dropped := false
	n := 0
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) < 4000 {
			return false
		}
		n++
		if n == 10 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	data := pattern(512*1024, 1)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(got), len(data))
	}
	if !dropped {
		t.Fatal("vacuous: nothing dropped")
	}
	if r.sa.Stats.TCPFastRetransmits == 0 {
		t.Fatal("expected a fast retransmission")
	}
}

func TestRTTEstimatorAdapts(t *testing.T) {
	r := newRig(t, 41)
	// Links have 20 µs delay; after a transfer the smoothed RTT must be
	// far below the 200 ms initial RTO.
	lis := r.sb.Listen(80)
	var cli *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) {
		c := lis.Accept(p)
		recvAll(p, r.kb, c)
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		var err error
		cli, err = r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sendAll(p, r.ka, cli, pattern(256*1024, 2))
		cli.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if cli.srtt == 0 {
		t.Fatal("no RTT samples taken")
	}
	if cli.srtt > 50*units.Millisecond {
		t.Fatalf("srtt = %v, implausibly high for a 20µs link", cli.srtt)
	}
	if cli.rto < minRTO {
		t.Fatalf("rto = %v below floor", cli.rto)
	}
}

func TestSlowStartLimitsInitialBurst(t *testing.T) {
	r := newRig(t, 42)
	// Count data frames in flight before the first ACK returns: must be
	// bounded by the initial congestion window, not the 512 KB advertised
	// window.
	var firstBurst int
	sawAck := false
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) > 4000 && !sawAck {
			firstBurst++
		}
		return false
	}
	r.ib.drop = func(_ int, data []byte) bool {
		// Only ACKs sent after data started flowing end the window.
		if len(data) < 1000 && firstBurst > 0 {
			sawAck = true
		}
		return false
	}
	runTransfer(t, r, pattern(512*1024, 3))
	if firstBurst == 0 {
		t.Fatal("no initial burst observed")
	}
	// initialCwndSegs plus a little slack for the measurement window.
	if firstBurst > initialCwndSegs+2 {
		t.Fatalf("initial burst = %d segments, want ≤ %d (slow start)",
			firstBurst, initialCwndSegs+2)
	}
}

func TestCwndGrowsAndCapsAtWindow(t *testing.T) {
	r := newRig(t, 43)
	lis := r.sb.Listen(80)
	var cli *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) {
		c := lis.Accept(p)
		recvAll(p, r.kb, c)
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		var err error
		cli, err = r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			return
		}
		sendAll(p, r.ka, cli, pattern(2*1024*1024, 4))
		cli.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if cli.cwnd <= initialCwndSegs*cli.MaxSeg {
		t.Fatalf("cwnd = %v never grew past initial %v", cli.cwnd, initialCwndSegs*cli.MaxSeg)
	}
	if cli.cwnd > cli.SndLimit {
		t.Fatalf("cwnd = %v exceeds the send buffer bound %v", cli.cwnd, cli.SndLimit)
	}
}

func TestTimeoutShrinksCwnd(t *testing.T) {
	r := newRig(t, 44)
	// Kill the link entirely for a stretch mid-transfer so the rtx timer
	// (not fast retransmit) fires.
	blackout := false
	r.ia.drop = func(n int, data []byte) bool {
		if n == 20 {
			blackout = true
		}
		if n == 40 {
			blackout = false
		}
		return blackout
	}
	var minCwnd units.Size = 1 << 40
	r.sa.Tracer = func(e TraceEvent) {
		if e.Dir != TraceOut {
			return
		}
		for _, c := range r.sa.Conns() {
			if c.cwnd > 0 && c.cwnd < minCwnd {
				minCwnd = c.cwnd
			}
		}
	}
	data := pattern(1024*1024, 5)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes", len(got))
	}
	if r.sa.Stats.TCPRetransmits == 0 {
		t.Fatal("expected timer retransmissions through the blackout")
	}
	// The multiplicative decrease must have bitten at least once.
	if minCwnd > 2*(8*units.KB) {
		t.Fatalf("min cwnd = %v, timeout never shrank the window", minCwnd)
	}
}

func TestDupAckCounterResetsOnNewAck(t *testing.T) {
	r := newRig(t, 45)
	// Two isolated single drops far apart: each should cost exactly one
	// fast retransmit (the counter must not accumulate across recoveries).
	n := 0
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) < 4000 {
			return false
		}
		n++
		return n == 8 || n == 40
	}
	data := pattern(1024*1024, 6)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes", len(got))
	}
	fr := r.sa.Stats.TCPFastRetransmits
	if fr < 1 || fr > 3 {
		t.Fatalf("fast retransmits = %d, want 1-3 for two isolated drops", fr)
	}
}

func TestPiggybackedFin(t *testing.T) {
	// The FIN may ride the last data segment; the receiver must deliver
	// all bytes and see EOF.
	r := newRig(t, 46)
	finWithData := false
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) > int(wire.IPHdrLen+wire.TCPHdrLen) {
			if h, err := wire.ParseTCPHdr(data[wire.IPHdrLen:]); err == nil &&
				h.Flags&wire.FlagFIN != 0 {
				finWithData = true
			}
		}
		return false
	}
	data := pattern(16*1024, 7)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes", len(got))
	}
	_ = finWithData // informational: either form is legal
}

// TestCCSelection: the stack's CC field picks a connection's estimator at
// creation — none for Reno, DCTCP's for dctcp — and an unknown name panics
// instead of running as Reno. A CE-echoing acknowledgement grows a DCTCP
// window not at all and a Reno window as any other.
func TestCCSelection(t *testing.T) {
	r := newRig(t, 45)
	for i, tc := range []struct {
		cc   string
		grow units.Size
	}{{"", 1000}, {CCReno, 1000}, {CCDctcp, 0}} {
		r.sa.CC = tc.cc
		c := r.sa.newConn(connKey{raddr: r.sb.Addr, lport: uint16(20000 + i), rport: 80})
		if (c.dctcp != nil) != (tc.cc == CCDctcp) {
			t.Errorf("CC %q: dctcp estimator %v", tc.cc, c.dctcp)
		}
		c.MaxSeg, c.cwnd, c.ssthresh = 1000, 10000, 1<<20
		c.onNewAck(1000, true)
		if got := c.cwnd - 10000; got != tc.grow {
			t.Errorf("CC %q: a CE-echoing ACK grew cwnd by %v, want %v", tc.cc, got, tc.grow)
		}
	}
	r.sa.CC = "cubic"
	defer func() {
		if recover() == nil {
			t.Fatal("an unknown CC ran instead of panicking")
		}
	}()
	r.sa.newConn(connKey{raddr: r.sb.Addr, lport: 20010, rport: 80})
}
