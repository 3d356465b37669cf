package tcpip

import (
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// pipeIf is a minimal legacy interface joining two stacks directly: output
// materializes the packet and injects it into the peer stack after a fixed
// delay, optionally dropping packets. It has no single-copy capabilities,
// so these tests exercise the pure software TCP/UDP/IP paths.
type pipeIf struct {
	name  string
	k     *kern.Kernel
	stk   *Stack
	peer  *pipeIf
	mtu   units.Size
	delay units.Time
	drop  func(n int, data []byte) bool
	sent  int
}

func (i *pipeIf) Name() string     { return i.name }
func (i *pipeIf) MTU() units.Size  { return i.mtu }
func (i *pipeIf) Caps() netif.Caps { return netif.Caps{} }
func (i *pipeIf) Output(ctx kern.Ctx, m *mbuf.Mbuf, dst netif.LinkAddr) {
	if mbuf.HasDescriptors(m) {
		m = netif.ConvertForLegacy(ctx, m)
	}
	data := mbuf.Materialize(m)
	mbuf.FreeChain(m)
	i.sent++
	if i.drop != nil && i.drop(i.sent, data) {
		return
	}
	peer := i.peer
	i.k.Eng.After(i.delay, func() {
		peer.k.PostIntr(func(p *sim.Proc) {
			var chain *mbuf.Mbuf
			for off := 0; off < len(data); off += int(mbuf.MCLBYTES) {
				n := len(data) - off
				if n > int(mbuf.MCLBYTES) {
					n = int(mbuf.MCLBYTES)
				}
				chain = mbuf.Cat(chain, mbuf.NewCluster(data[off:off+n]))
			}
			chain.MarkPktHdr(units.Size(len(data)))
			peer.stk.Input(peer.k.IntrCtx(p), chain, peer)
		})
	})
}

// rig builds two stacks joined by a pipe.
type rig struct {
	eng    *sim.Engine
	ka, kb *kern.Kernel
	sa, sb *Stack
	ia, ib *pipeIf
}

func newRig(t *testing.T, seed int64) *rig {
	t.Helper()
	eng := sim.NewEngine(seed)
	r := &rig{eng: eng}
	r.ka = kern.New("A", eng, cost.Alpha400())
	r.kb = kern.New("B", eng, cost.Alpha400())
	r.sa = NewStack(r.ka, 0x0a000001)
	r.sb = NewStack(r.kb, 0x0a000002)
	r.ia = &pipeIf{name: "pipeA", k: r.ka, stk: r.sa, mtu: 8 * units.KB, delay: 20 * units.Microsecond}
	r.ib = &pipeIf{name: "pipeB", k: r.kb, stk: r.sb, mtu: 8 * units.KB, delay: 20 * units.Microsecond}
	r.ia.peer, r.ib.peer = r.ib, r.ia
	r.sa.Routes.AddHost(r.sb.Addr, r.ia, 2)
	r.sb.Routes.AddHost(r.sa.Addr, r.ib, 1)
	return r
}

// sendAll appends data to the connection from a kernel proc, blocking on
// buffer space.
func sendAll(p *sim.Proc, k *kern.Kernel, c *TCPConn, data []byte) error {
	ctx := k.TaskCtx(p, k.KernelTask)
	for off := 0; off < len(data); {
		if err := c.WaitSndSpace(p); err != nil {
			return err
		}
		n := units.Size(len(data) - off)
		if avail := c.SndAvail(); n > avail {
			n = avail
		}
		chunk := data[off : off+int(n)]
		var chain *mbuf.Mbuf
		for co := 0; co < len(chunk); co += int(mbuf.MCLBYTES) {
			ce := co + int(mbuf.MCLBYTES)
			if ce > len(chunk) {
				ce = len(chunk)
			}
			chain = mbuf.Cat(chain, mbuf.NewCluster(chunk[co:ce]))
		}
		if err := c.Append(ctx, chain, n, off == 0); err != nil {
			return err
		}
		off += int(n)
	}
	return nil
}

// awaitClosed polls c from its process until the connection is torn down.
func awaitClosed(p *sim.Proc, c *TCPConn) {
	for c.State() != StateClosed {
		p.Sleep(100 * units.Microsecond)
	}
}

// recvAll drains the stream until EOF.
func recvAll(p *sim.Proc, k *kern.Kernel, c *TCPConn) []byte {
	ctx := k.TaskCtx(p, k.KernelTask)
	var out []byte
	for c.WaitRcvData(p) {
		chain, n := c.DequeueRcv(1 << 20)
		if n == 0 {
			break
		}
		out = append(out, mbuf.Materialize(chain)...)
		mbuf.FreeChain(chain)
		c.WindowUpdate(ctx)
	}
	return out
}

func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + seed
	}
	return b
}

func TestHandshakeEstablishes(t *testing.T) {
	r := newRig(t, 1)
	lis := r.sb.Listen(80)
	var srv, cli *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) { srv = lis.Accept(p) })
	r.eng.Go("cli", func(p *sim.Proc) {
		c, err := r.sa.Connect(r.ka.TaskCtx(p, r.ka.KernelTask), r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
		}
		cli = c
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if cli == nil || srv == nil {
		t.Fatal("handshake incomplete")
	}
	if cli.State() != StateEstablished || srv.State() != StateEstablished {
		t.Fatalf("states: cli=%v srv=%v", cli.State(), srv.State())
	}
	if cli.MaxSeg != 8*units.KB-wire.IPHdrLen-wire.TCPHdrLen {
		t.Fatalf("maxseg = %v", cli.MaxSeg)
	}
}

func TestConnectNoListenerResetsFast(t *testing.T) {
	r := newRig(t, 2)
	var err error
	var failedAt units.Time
	r.eng.Go("cli", func(p *sim.Proc) {
		_, err = r.sa.Connect(r.ka.TaskCtx(p, r.ka.KernelTask), r.sb.Addr, 81)
		failedAt = p.Now()
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if err != ErrConnReset {
		t.Fatalf("err = %v, want ErrConnReset", err)
	}
	// The RST arrives in one round trip, not after retransmission
	// timeouts.
	if failedAt > 50*units.Millisecond {
		t.Fatalf("connect failed at %v; RST should be immediate", failedAt)
	}
	if r.sb.Stats.TCPRstsOut == 0 || r.sa.Stats.TCPRstsIn == 0 {
		t.Fatalf("rsts out=%d in=%d", r.sb.Stats.TCPRstsOut, r.sa.Stats.TCPRstsIn)
	}
}

// runTransfer moves data A→B over the rig and returns what B read.
func runTransfer(t *testing.T, r *rig, data []byte) []byte {
	t.Helper()
	lis := r.sb.Listen(80)
	var got []byte
	r.eng.Go("srv", func(p *sim.Proc) {
		c := lis.Accept(p)
		got = recvAll(p, r.kb, c)
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		c, err := r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if err := sendAll(p, r.ka, c, data); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	r.eng.KillAll()
	return got
}

func TestBulkTransferIntegrity(t *testing.T) {
	r := newRig(t, 3)
	data := pattern(1<<20, 5)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	if r.sb.Stats.TCPCsumErrors != 0 {
		t.Fatalf("checksum errors: %d", r.sb.Stats.TCPCsumErrors)
	}
}

func TestSegmentationRespectsMSS(t *testing.T) {
	r := newRig(t, 4)
	runTransfer(t, r, pattern(100*1024, 1))
	// 100KB over an 8KB MTU: at least 13 data segments.
	if r.sa.Stats.TCPSegsOut < 13 {
		t.Fatalf("segments out = %d, want ≥ 13", r.sa.Stats.TCPSegsOut)
	}
}

func TestRetransmissionUnderLoss(t *testing.T) {
	r := newRig(t, 5)
	n := 0
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) < 1000 {
			return false
		}
		n++
		return n%7 == 0
	}
	data := pattern(512*1024, 9)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted under loss", i)
		}
	}
	if r.sa.Stats.TCPRetransmits == 0 {
		t.Fatal("expected retransmissions")
	}
	if r.sb.Stats.TCPOutOfOrder == 0 {
		t.Fatal("expected out-of-order segments held for reassembly")
	}
}

func TestLostFinRetransmitted(t *testing.T) {
	r := newRig(t, 6)
	finDropped := false
	r.ia.drop = func(_ int, data []byte) bool {
		// Drop the first FIN-bearing segment (possibly piggybacked on
		// data).
		if len(data) >= int(wire.IPHdrLen+wire.TCPHdrLen) && !finDropped {
			h, err := wire.ParseTCPHdr(data[wire.IPHdrLen:])
			if err == nil && h.Flags&wire.FlagFIN != 0 {
				finDropped = true
				return true
			}
		}
		return false
	}
	got := runTransfer(t, r, pattern(64*1024, 2))
	if len(got) != 64*1024 {
		t.Fatalf("got %d bytes", len(got))
	}
	if !finDropped {
		t.Fatal("test never saw a FIN")
	}
}

func TestZeroWindowAndPersist(t *testing.T) {
	r := newRig(t, 7)
	lis := r.sb.Listen(80)
	data := pattern(256*1024, 3)
	var got []byte
	r.eng.Go("srv", func(p *sim.Proc) {
		c := lis.Accept(p)
		c.RcvLimit = 32 * units.KB // tiny window
		// Sleep long enough for the sender to fill the window and go
		// idle, then drain slowly.
		p.Sleep(2 * units.Second)
		got = recvAll(p, r.kb, c)
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		c, err := r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.SndLimit = 512 * units.KB
		if err := sendAll(p, r.ka, c, data); err != nil {
			t.Errorf("send: %v", err)
		}
		c.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(got) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(got), len(data))
	}
}

func TestDuplicateSegmentsIgnored(t *testing.T) {
	r := newRig(t, 8)
	// Duplicate every data frame: deliver twice.
	orig := r.ia.peer
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) > 1000 {
			// Inject a duplicate copy after a short delay.
			cp := append([]byte{}, data...)
			r.ka.Eng.After(300*units.Microsecond, func() {
				orig.k.PostIntr(func(p *sim.Proc) {
					var chain *mbuf.Mbuf
					for off := 0; off < len(cp); off += int(mbuf.MCLBYTES) {
						e := off + int(mbuf.MCLBYTES)
						if e > len(cp) {
							e = len(cp)
						}
						chain = mbuf.Cat(chain, mbuf.NewCluster(cp[off:e]))
					}
					chain.MarkPktHdr(units.Size(len(cp)))
					orig.stk.Input(orig.k.IntrCtx(p), chain, orig)
				})
			})
		}
		return false
	}
	data := pattern(128*1024, 4)
	got := runTransfer(t, r, data)
	if len(got) != len(data) {
		t.Fatalf("got %d, want %d (duplicates must not corrupt the stream)", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("byte %d corrupted by duplicates", i)
		}
	}
	if r.sb.Stats.TCPDupSegs == 0 {
		t.Fatal("expected duplicate segments to be counted")
	}
}

func TestCorruptedSegmentDropped(t *testing.T) {
	r := newRig(t, 9)
	flipped := 0
	r.ia.drop = func(n int, data []byte) bool {
		// Flip a payload bit in some data frames; the checksum must
		// catch it and TCP must recover by retransmission.
		if len(data) > 2000 && n%5 == 0 {
			data[len(data)-3] ^= 0x40
			flipped++
		}
		return false
	}
	data := pattern(256*1024, 6)
	got := runTransfer(t, r, data)
	if flipped == 0 {
		t.Fatal("no frames corrupted; test is vacuous")
	}
	if r.sb.Stats.TCPCsumErrors == 0 {
		t.Fatal("checksum verification failed to catch corruption")
	}
	if len(got) != len(data) {
		t.Fatalf("got %d bytes, want %d", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("corrupted byte %d reached the application", i)
		}
	}
}

func TestOrderlyCloseBothStates(t *testing.T) {
	r := newRig(t, 10)
	lis := r.sb.Listen(80)
	var srv, cli *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) {
		srv = lis.Accept(p)
		recvAll(p, r.kb, srv)
		srv.Close(r.kb.TaskCtx(p, r.kb.KernelTask)) // close our side too
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		var err error
		cli, err = r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sendAll(p, r.ka, cli, pattern(64*1024, 8))
		cli.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if cli.State() != StateClosed || srv.State() != StateClosed {
		t.Fatalf("states after close: cli=%v srv=%v", cli.State(), srv.State())
	}
	if len(r.sa.conns) != 0 || len(r.sb.conns) != 0 {
		t.Fatalf("connection tables not empty: %d/%d", len(r.sa.conns), len(r.sb.conns))
	}
}

func TestSeqArithmeticProperties(t *testing.T) {
	lt := func(a, b uint32) bool {
		// Within a half-space window, seqLT matches integer comparison.
		if b-a < 1<<31 {
			return seqLT(a, b) == (a != b)
		}
		return true
	}
	if err := quick.Check(lt, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	diff := func(a uint32, d uint16) bool {
		b := a + uint32(d)
		return seqDiff(b, a) == units.Size(d)
	}
	if err := quick.Check(diff, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	r := newRig(t, 11)
	rx, _ := r.sb.UDPBind(9000)
	var got []*UDPDatagram
	r.eng.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, rx.RecvFrom(p))
		}
	})
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		for i := 0; i < 3; i++ {
			tx.SendTo(ctx, mbuf.NewCluster(pattern(2048, byte(i))), 2048, r.sb.Addr, 9000)
		}
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(got) != 3 {
		t.Fatalf("received %d datagrams, want 3", len(got))
	}
	for i, d := range got {
		want := pattern(2048, byte(i))
		buf := mbuf.Materialize(d.Chain)
		if string(buf) != string(want) {
			t.Fatalf("datagram %d corrupted", i)
		}
	}
}

func TestUDPChecksumCatchesCorruption(t *testing.T) {
	r := newRig(t, 12)
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) > 1000 {
			data[500] ^= 1
		}
		return false
	}
	rx, _ := r.sb.UDPBind(9000)
	delivered := false
	r.eng.Go("rx", func(p *sim.Proc) {
		rx.RecvFrom(p)
		delivered = true
	})
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		tx.SendTo(ctx, mbuf.NewCluster(pattern(2048, 1)), 2048, r.sb.Addr, 9000)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if delivered {
		t.Fatal("corrupted datagram delivered")
	}
	if r.sb.Stats.UDPCsumErrors != 1 {
		t.Fatalf("csum errors = %d, want 1", r.sb.Stats.UDPCsumErrors)
	}
}

func TestUDPUnboundPortDropped(t *testing.T) {
	r := newRig(t, 13)
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		tx.SendTo(ctx, mbuf.NewCluster(pattern(100, 1)), 100, r.sb.Addr, 9999)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if r.sb.Stats.UDPDropNoPort != 1 {
		t.Fatalf("drops = %d, want 1", r.sb.Stats.UDPDropNoPort)
	}
}

func TestIPForwarding(t *testing.T) {
	// A → R → B with R routing between two pipe interfaces.
	eng := sim.NewEngine(14)
	ka := kern.New("A", eng, cost.Alpha400())
	kr := kern.New("R", eng, cost.Alpha400())
	kb := kern.New("B", eng, cost.Alpha400())
	sa := NewStack(ka, 0x0a000001)
	sr := NewStack(kr, 0x0a0000fe)
	sb := NewStack(kb, 0x0a000002)

	mk := func(name string, k *kern.Kernel, s *Stack) *pipeIf {
		return &pipeIf{name: name, k: k, stk: s, mtu: 8 * units.KB, delay: 10 * units.Microsecond}
	}
	// Two links: A—R and R—B.
	ar, ra := mk("ar", ka, sa), mk("ra", kr, sr)
	ar.peer, ra.peer = ra, ar
	rb, br := mk("rb", kr, sr), mk("br", kb, sb)
	rb.peer, br.peer = br, rb

	sa.Routes.AddHost(sb.Addr, ar, 0) // A sends via R
	sr.Routes.AddHost(sb.Addr, rb, 0)
	sr.Routes.AddHost(sa.Addr, ra, 0)
	sb.Routes.AddHost(sa.Addr, br, 0) // B replies via R

	lis := sb.Listen(80)
	var got []byte
	data := pattern(100*1024, 5)
	eng.Go("srv", func(p *sim.Proc) {
		c := lis.Accept(p)
		got = recvAll(p, kb, c)
	})
	eng.Go("cli", func(p *sim.Proc) {
		ctx := ka.TaskCtx(p, ka.KernelTask)
		c, err := sa.Connect(ctx, sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sendAll(p, ka, c, data)
		c.Close(ka.TaskCtx(p, ka.KernelTask))
	})
	eng.Run()
	defer eng.KillAll()
	if len(got) != len(data) {
		t.Fatalf("got %d bytes via router, want %d", len(got), len(data))
	}
	if sr.Stats.IPForwarded == 0 {
		t.Fatal("router forwarded nothing")
	}
}

func TestTTLExpiryDropsPacket(t *testing.T) {
	r := newRig(t, 15)
	// Deliver a hand-built packet with TTL 1 addressed elsewhere: the
	// stack must not forward it.
	r.eng.Go("inject", func(p *sim.Proc) {
		hdr := wire.IPHdr{TotLen: wire.IPHdrLen, ID: 1, TTL: 1, Proto: 99,
			Src: r.sa.Addr, Dst: 0x0a0000aa}
		b := make([]byte, wire.IPHdrLen)
		hdr.Marshal(b)
		m := mbuf.NewCluster(b)
		m.MarkPktHdr(wire.IPHdrLen)
		r.sb.Input(r.kb.IntrCtx(p), m, r.ib)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if r.sb.Stats.IPForwarded != 0 {
		t.Fatal("TTL-1 packet must not be forwarded")
	}
}

func TestBoundariesPreventCoalescing(t *testing.T) {
	r := newRig(t, 16)
	lis := r.sb.Listen(80)
	var srv *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) {
		srv = lis.Accept(p)
		recvAll(p, r.kb, srv)
	})
	const writes, wsize = 16, 2048
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		c, err := r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		c.NoCoalesce = true
		for i := 0; i < writes; i++ {
			if err := sendAll(p, r.ka, c, pattern(wsize, byte(i))); err != nil {
				t.Errorf("send: %v", err)
			}
		}
		c.Close(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	// With NoCoalesce each 2KB write is its own segment even though the
	// MSS is ~8KB: at least `writes` data segments.
	if r.sa.Stats.TCPSegsOut < writes {
		t.Fatalf("segments out = %d, want ≥ %d (no coalescing)", r.sa.Stats.TCPSegsOut, writes)
	}
}

func TestWindowScalingCarries512KB(t *testing.T) {
	r := newRig(t, 17)
	lis := r.sb.Listen(80)
	var srv *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) { srv = lis.Accept(p) })
	var cli *TCPConn
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		cli, _ = r.sa.Connect(ctx, r.sb.Addr, 80)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	// B advertised its default 512KB receive window through the scaled
	// field; A must see it in full.
	if cli.sndWnd != DefaultWindow {
		t.Fatalf("advertised window = %v, want %v", cli.sndWnd, DefaultWindow)
	}
	_ = srv
}

func TestAbortSendsRst(t *testing.T) {
	r := newRig(t, 18)
	lis := r.sb.Listen(80)
	var srv *TCPConn
	r.eng.Go("srv", func(p *sim.Proc) {
		srv = lis.Accept(p)
		// Block reading; the peer will abort.
		srv.WaitRcvData(p)
	})
	r.eng.Go("cli", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		c, err := r.sa.Connect(ctx, r.sb.Addr, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		p.Sleep(10 * units.Millisecond)
		c.Abort(r.ka.TaskCtx(p, r.ka.KernelTask))
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if srv == nil {
		t.Fatal("no accept")
	}
	if srv.State() != StateClosed || srv.Err != ErrConnReset {
		t.Fatalf("server state=%v err=%v, want reset teardown", srv.State(), srv.Err)
	}
}
