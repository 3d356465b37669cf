package core

import (
	"bytes"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	port  = 5001
)

// twoHosts builds a sender/receiver pair over the CAB in the given mode.
func twoHosts(mode socket.Mode) (*Testbed, *Host, *Host) {
	tb := NewTestbed(1)
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: mode, CABNode: 1})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	return tb, a, b
}

// pattern fills b with a position-dependent pattern.
func pattern(b []byte, seed byte) {
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
}

// transfer runs a bulk transfer of total bytes in writeSize units from a
// to b and returns the received bytes.
func transfer(t *testing.T, tb *Testbed, a, b *Host, total, writeSize units.Size) []byte {
	t.Helper()
	var received []byte
	lis := b.Stk.Listen(port)

	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(256*units.KB, 8)
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				received = append(received, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})

	st := a.NewUserTask("snd", 2*writeSize+16*units.MB)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := st.Space.Alloc(writeSize, 8)
		for sent := units.Size(0); sent < total; sent += writeSize {
			pattern(buf.Bytes(), byte(sent/writeSize))
			if err := s.WriteAll(p, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		s.Close(p)
	})

	tb.Eng.Run()
	tb.Eng.KillAll()
	return received
}

// wantPattern builds the expected stream.
func wantPattern(total, writeSize units.Size) []byte {
	out := make([]byte, 0, total)
	chunk := make([]byte, writeSize)
	for sent := units.Size(0); sent < total; sent += writeSize {
		pattern(chunk, byte(sent/writeSize))
		out = append(out, chunk...)
	}
	return out
}

func TestEndToEndSingleCopy(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	total, ws := units.Size(2*units.MB), units.Size(64*units.KB)
	got := transfer(t, tb, a, b, total, ws)
	if units.Size(len(got)) != total {
		t.Fatalf("received %d bytes, want %d", len(got), total)
	}
	if !bytes.Equal(got, wantPattern(total, ws)) {
		t.Fatal("data corrupted in transit")
	}
	// The single-copy path must actually have been used.
	if b.Stk.Stats.HWCsumVerified == 0 {
		t.Fatal("no hardware checksum verifications on receiver")
	}
	if b.Drv.Stats.RxLarge == 0 {
		t.Fatal("no WCAB (outboard) receive deliveries")
	}
	if a.Stk.Stats.TCPRetransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", a.Stk.Stats.TCPRetransmits)
	}
	// No leaks: network memory drained, no pinned user pages.
	if a.CAB.FreePages() != a.CAB.TotalPages() {
		t.Fatalf("sender CAB leaked pages: %d of %d free",
			a.CAB.FreePages(), a.CAB.TotalPages())
	}
	if b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatalf("receiver CAB leaked pages: %d of %d free",
			b.CAB.FreePages(), b.CAB.TotalPages())
	}
}

func TestEndToEndUnmodified(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeUnmodified)
	total, ws := units.Size(1*units.MB), units.Size(64*units.KB)
	got := transfer(t, tb, a, b, total, ws)
	if !bytes.Equal(got, wantPattern(total, ws)) {
		t.Fatal("data corrupted in transit")
	}
	// The unmodified stack verifies checksums in software and never sees
	// descriptors.
	if b.Stk.Stats.HWCsumVerified != 0 {
		t.Fatal("unmodified stack should not use hardware checksums")
	}
	if b.Stk.Stats.SWCsumVerified == 0 {
		t.Fatal("no software checksum verifications")
	}
	if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("CAB pages leaked")
	}
}

func TestSingleCopyUsesLessCPU(t *testing.T) {
	run := func(mode socket.Mode) units.Time {
		tb, a, b := twoHosts(mode)
		total, ws := units.Size(4*units.MB), units.Size(128*units.KB)
		got := transfer(t, tb, a, b, total, ws)
		if units.Size(len(got)) != total {
			t.Fatalf("mode %v: received %d of %d", mode, len(got), total)
		}
		return a.K.BusyTime() + b.K.BusyTime()
	}
	unmod := run(socket.ModeUnmodified)
	single := run(socket.ModeSingleCopy)
	if single >= unmod {
		t.Fatalf("single-copy CPU (%v) should be well below unmodified (%v)", single, unmod)
	}
	ratio := float64(unmod) / float64(single)
	if ratio < 1.5 {
		t.Fatalf("CPU saving ratio = %.2f, want ≥ 1.5", ratio)
	}
	t.Logf("CPU busy: unmodified=%v single-copy=%v (ratio %.2f)", unmod, single, ratio)
}

func TestRetransmissionUnderLoss(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	// Drop every 13th data-bearing frame (let the handshake through).
	inj := fault.New(tb.Eng, 1)
	inj.Add(fault.Rule{Kind: fault.Drop, When: fault.Every(13), MinLen: 200})
	inj.WireNet(tb.Net)
	total, ws := units.Size(2*units.MB), units.Size(64*units.KB)
	got := transfer(t, tb, a, b, total, ws)
	if !bytes.Equal(got, wantPattern(total, ws)) {
		t.Fatalf("data corrupted under loss (got %d bytes, want %d)", len(got), total)
	}
	if a.Stk.Stats.TCPRetransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
	// Retransmissions of outboard data should use header-only overlays.
	if a.Drv.Stats.TxOverlays == 0 {
		t.Fatal("expected header-only retransmit overlays (Section 4.3)")
	}
	if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("CAB pages leaked under loss")
	}
}

func TestSmallWritesUseCopyPathWithThreshold(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(64*units.KB, 8)
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	var sock *socket.Socket
	tb.Eng.Go("sender", func(p *sim.Proc) {
		cfg := a.SocketConfig()
		cfg.UIOThreshold = 16 * units.KB // Section 4.4.3 optimization
		conn, err := a.Stk.Connect(a.K.TaskCtx(p, st), addrB, port)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sock = socket.NewSocket(a.K, a.VM, st, conn, cfg)
		small := st.Space.Alloc(4*units.KB, 8)
		large := st.Space.Alloc(64*units.KB, 8)
		pattern(small.Bytes(), 1)
		pattern(large.Bytes(), 2)
		sock.WriteAll(p, small)
		sock.WriteAll(p, large)
		sock.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if units.Size(len(got)) != 68*units.KB {
		t.Fatalf("received %d bytes", len(got))
	}
	if sock.K.Sock.CopyWrites != 1 || sock.K.Sock.UIOWrites != 1 {
		t.Fatalf("copy/UIO writes = %d/%d, want 1/1", sock.K.Sock.CopyWrites, sock.K.Sock.UIOWrites)
	}
}

func TestUnalignedWriteFallsBack(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(128*units.KB, 8)
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	var sock *socket.Socket
	tb.Eng.Go("sender", func(p *sim.Proc) {
		var err error
		sock, err = a.Dial(p, st, addrB, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		// A 2-byte misaligned buffer cannot be DMAed (Section 4.5).
		buf := st.Space.AllocMisaligned(64*units.KB, 2)
		pattern(buf.Bytes(), 7)
		sock.WriteAll(p, buf)
		sock.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if units.Size(len(got)) != 64*units.KB {
		t.Fatalf("received %d bytes", len(got))
	}
	want := make([]byte, 64*units.KB)
	pattern(want, 7)
	if !bytes.Equal(got, want) {
		t.Fatal("unaligned data corrupted")
	}
	if sock.K.Sock.UIOWrites != 0 || sock.K.Sock.CopyWrites != 1 {
		t.Fatalf("UIO/copy writes = %d/%d, want 0/1", sock.K.Sock.UIOWrites, sock.K.Sock.CopyWrites)
	}
}

func TestTransferOverEthernetInterop(t *testing.T) {
	// Single-copy stack hosts talking over a legacy device: the socket
	// layer still creates UIO mbufs; the driver-entry shim converts them
	// (Section 5).
	tb := NewTestbed(1)
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1, EthNode: 11})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2, EthNode: 12})
	tb.RouteEth(a, b)
	total, ws := units.Size(256*units.KB), units.Size(32*units.KB)
	got := transfer(t, tb, a, b, total, ws)
	if !bytes.Equal(got, wantPattern(total, ws)) {
		t.Fatal("data corrupted over legacy device")
	}
	if a.Eth.Converted == 0 {
		t.Fatal("expected driver-entry descriptor conversions")
	}
	if b.Stk.Stats.HWCsumVerified != 0 {
		t.Fatal("legacy device cannot provide hardware checksums")
	}
}

func TestLoopback(t *testing.T) {
	tb := NewTestbed(1)
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1, Loopback: true})
	lis := a.Stk.Listen(port)
	var got []byte
	rt := a.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := a.Accept(p, rt, lis)
		buf := rt.Space.Alloc(32*units.KB, 8)
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrA, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := st.Space.Alloc(32*units.KB, 8)
		pattern(buf.Bytes(), 9)
		s.WriteAll(p, buf)
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	want := make([]byte, 32*units.KB)
	pattern(want, 9)
	if !bytes.Equal(got, want) {
		t.Fatalf("loopback data mismatch (%d bytes)", len(got))
	}
}

func TestUDPTransfer(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	var got [][]byte
	rt := b.NewUserTask("rcv", 0)
	rx := socket.MustDGram(b.K, b.VM, rt, b.Stk, 7000, b.SocketConfig())
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		buf := rt.Space.Alloc(32*units.KB, 8)
		for i := 0; i < 8; i++ {
			n, _, _ := rx.RecvFrom(p, buf)
			cp := make([]byte, n)
			copy(cp, buf.Bytes())
			got = append(got, cp)
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		tx := socket.MustDGram(a.K, a.VM, st, a.Stk, 0, a.SocketConfig())
		buf := st.Space.Alloc(16*units.KB, 8)
		for i := 0; i < 8; i++ {
			pattern(buf.Bytes(), byte(i))
			tx.SendTo(p, buf, addrB, 7000)
		}
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if len(got) != 8 {
		t.Fatalf("received %d datagrams, want 8", len(got))
	}
	want := make([]byte, 16*units.KB)
	for i, g := range got {
		pattern(want, byte(i))
		if !bytes.Equal(g, want) {
			t.Fatalf("datagram %d corrupted", i)
		}
	}
	// UDP outboard packets are freed after the media send.
	if a.CAB.FreePages() != a.CAB.TotalPages() {
		t.Fatal("sender CAB pages leaked (UDP should free after send)")
	}
}

// TestCheckPoolsReachesEveryHost is the harness's vacuity guard: after
// CheckPools, the lists of hosts added later are in check mode, so a
// released mbuf reads as freed and a released packet loses its memory.
func TestCheckPoolsReachesEveryHost(t *testing.T) {
	tb := NewTestbed(1)
	tb.CheckPools()
	h := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	m := h.K.Mbufs.NewData([]byte{1, 2, 3})
	m.Free()
	if m.Len() >= 0 {
		t.Fatalf("released mbuf still reads %v bytes", m.Len())
	}
	pk, _ := h.CAB.AllocPacket(100)
	pk.Free()
	if pk.Len() >= 0 || pk.Owner() != nil {
		t.Fatalf("released packet still reads as %v bytes on adaptor %p", pk.Len(), pk.Owner())
	}
	if b := tb.Net.Bufs.Get(10); b[0] != 0xdb {
		t.Fatal("the network's buffers are not in check mode")
	}
}
