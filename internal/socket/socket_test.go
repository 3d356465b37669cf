package socket_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kern"
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

func rig(t *testing.T, mode socket.Mode) (*core.Testbed, *core.Host, *core.Host) {
	t.Helper()
	tb := core.NewTestbed(21)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	return tb, a, b
}

func TestReadBlocksUntilData(t *testing.T) {
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var readAt units.Time
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(8*units.KB, 8)
		n, err := s.Read(p, buf)
		if err != nil || n == 0 {
			t.Errorf("read: n=%v err=%v", n, err)
		}
		readAt = p.Now()
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		p.Sleep(50 * units.Millisecond) // delay before writing
		buf := st.Space.Alloc(4*units.KB, 8)
		s.WriteAll(p, buf)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if readAt < 50*units.Millisecond {
		t.Fatalf("read returned at %v, before any data was written", readAt)
	}
}

func TestPartialReads(t *testing.T) {
	// A reader with a small buffer must see the stream in order across
	// many partial reads.
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(3000, 8) // odd, small
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
	want := make([]byte, 200*units.KB)
	for i := range want {
		want[i] = byte(i * 31)
	}
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			return
		}
		buf := st.Space.Alloc(units.Size(len(want)), 8)
		copy(buf.Bytes(), want)
		s.WriteAll(p, buf)
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if !bytes.Equal(got, want) {
		t.Fatalf("stream mismatch: got %d bytes", len(got))
	}
}

func TestUnalignedReadFallsBackToCopy(t *testing.T) {
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var sock *socket.Socket
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		sock = b.Accept(p, rt, lis)
		// A 2-byte misaligned read buffer cannot take SDMA (Section 4.5).
		buf := rt.Space.AllocMisaligned(64*units.KB, 2)
		for {
			n, err := sock.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	want := make([]byte, 128*units.KB)
	for i := range want {
		want[i] = byte(i * 7)
	}
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			return
		}
		buf := st.Space.Alloc(units.Size(len(want)), 8)
		copy(buf.Bytes(), want)
		s.WriteAll(p, buf)
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if !bytes.Equal(got, want) {
		t.Fatalf("unaligned read corrupted stream (%d bytes)", len(got))
	}
	if sock.K.Sock.UIOReads != 0 {
		t.Fatalf("UIO (DMA) reads = %d, want 0 for misaligned buffer", sock.K.Sock.UIOReads)
	}
	if sock.K.Sock.CopyReads == 0 {
		t.Fatal("expected copy-path reads")
	}
	// No pages may stay pinned after the fallback path.
	if rt.Space.PinnedPages() != 0 {
		t.Fatalf("pinned pages = %d after read", rt.Space.PinnedPages())
	}
}

func TestWriteReturnsAfterDataSecured(t *testing.T) {
	// Copy semantics: after Write returns, scribbling on the buffer must
	// not corrupt what the receiver sees — even with retransmissions
	// pending.
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
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
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			return
		}
		buf := st.Space.Alloc(64*units.KB, 8)
		for w := 0; w < 8; w++ {
			for i := range buf.Bytes() {
				buf.Bytes()[i] = byte(i + w)
			}
			s.WriteAll(p, buf)
			// Scribble immediately after return.
			for i := range buf.Bytes() {
				buf.Bytes()[i] = 0xEE
			}
		}
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if len(got) != 8*64*1024 {
		t.Fatalf("got %d bytes", len(got))
	}
	for w := 0; w < 8; w++ {
		chunk := got[w*64*1024 : (w+1)*64*1024]
		for i, v := range chunk {
			if v != byte(i+w) {
				t.Fatalf("write %d byte %d = %#x: user scribble leaked (copy semantics broken)", w, i, v)
			}
		}
	}
	if st.Space.PinnedPages() != 0 {
		t.Fatalf("pinned pages leaked: %d", st.Space.PinnedPages())
	}
}

func TestDGramTruncation(t *testing.T) {
	tb, a, b := rig(t, socket.ModeSingleCopy)
	rt := b.NewUserTask("rcv", 0)
	rx := socket.MustDGram(b.K, b.VM, rt, b.Stk, 9000, b.SocketConfig())
	var n units.Size
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		small := rt.Space.Alloc(1000, 8)
		n, _, _ = rx.RecvFrom(p, small)
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("snd", func(p *sim.Proc) {
		tx := socket.MustDGram(a.K, a.VM, st, a.Stk, 0, a.SocketConfig())
		buf := st.Space.Alloc(8*units.KB, 8)
		tx.SendTo(p, buf, addrB, 9000)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if n != 1000 {
		t.Fatalf("received %v bytes, want 1000 (truncated)", n)
	}
	// The truncated remainder must not leak network memory.
	if b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("truncation leaked CAB pages")
	}
}

func TestUtilizationAccountingPerMode(t *testing.T) {
	// The single-copy sender must burn almost no copy/csum CPU; the
	// unmodified sender must burn plenty.
	for _, mode := range []socket.Mode{socket.ModeUnmodified, socket.ModeSingleCopy} {
		tb, a, b := rig(t, mode)
		lis := b.Stk.Listen(port)
		rt := b.NewUserTask("rcv", 0)
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			s := b.Accept(p, rt, lis)
			buf := rt.Space.Alloc(64*units.KB, 8)
			for {
				if _, err := s.Read(p, buf); err != nil {
					return
				}
			}
		})
		st := a.NewUserTask("snd", 0)
		tb.Eng.Go("snd", func(p *sim.Proc) {
			s, err := a.Dial(p, st, addrB, port)
			if err != nil {
				return
			}
			buf := st.Space.Alloc(64*units.KB, 8)
			for i := 0; i < 16; i++ {
				s.WriteAll(p, buf)
			}
			s.Close(p)
		})
		tb.Eng.Run()
		tb.Eng.KillAll()
		copyTime := a.K.CategoryTime(kern.CatCopy) + a.K.CategoryTime(kern.CatCsum)
		vmTime := a.K.CategoryTime(kern.CatVM)
		if mode == socket.ModeSingleCopy {
			if copyTime != 0 {
				t.Errorf("single-copy sender burned %v on copy/csum", copyTime)
			}
			if vmTime == 0 {
				t.Error("single-copy sender should pay VM costs")
			}
		} else {
			if copyTime == 0 {
				t.Error("unmodified sender should pay copy/csum costs")
			}
			if vmTime != 0 {
				t.Errorf("unmodified sender paid VM costs: %v", vmTime)
			}
		}
	}
}

func TestAlignFirstPacketOptimization(t *testing.T) {
	// Section 4.5 extension: a large misaligned write is split into a
	// short copied prefix plus an aligned single-copy remainder.
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(256*units.KB, 8)
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
	tb.Eng.Go("snd", func(p *sim.Proc) {
		cfg := a.SocketConfig()
		cfg.AlignFirstPacket = true
		conn, err := a.Stk.Connect(a.K.TaskCtx(p, st), addrB, port)
		if err != nil {
			return
		}
		sock = socket.NewSocket(a.K, a.VM, st, conn, cfg)
		buf := st.Space.AllocMisaligned(256*units.KB, 2)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = byte(i * 3)
		}
		sock.WriteAll(p, buf)
		sock.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if len(got) != 256*1024 {
		t.Fatalf("got %d bytes", len(got))
	}
	for i := range got {
		if got[i] != byte(i*3) {
			t.Fatalf("byte %d corrupted", i)
		}
	}
	if sock.K.Sock.AlignedWrites != 1 {
		t.Fatalf("aligned writes = %d, want 1", sock.K.Sock.AlignedWrites)
	}
	if sock.K.Sock.UIOWrites != 0 {
		t.Fatalf("plain UIO writes = %d, want 0 (the buffer was misaligned)", sock.K.Sock.UIOWrites)
	}
	// The bulk must have gone outboard: sender copy time covers only the
	// 2-byte prefix (plus nothing else).
	copyT := a.K.CategoryTime(kern.CatCopy)
	if copyT > 10*units.Microsecond {
		t.Fatalf("sender copy time %v: bulk did not take the DMA path", copyT)
	}
}

func TestAlignFirstPacketDisabledByDefault(t *testing.T) {
	tb, a, b := rig(t, socket.ModeSingleCopy)
	lis := b.Stk.Listen(port)
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(256*units.KB, 8)
		for {
			if _, err := s.Read(p, buf); err != nil {
				return
			}
		}
	})
	st := a.NewUserTask("snd", 0)
	var sock *socket.Socket
	tb.Eng.Go("snd", func(p *sim.Proc) {
		var err error
		sock, err = a.Dial(p, st, addrB, port)
		if err != nil {
			return
		}
		buf := st.Space.AllocMisaligned(256*units.KB, 2)
		sock.WriteAll(p, buf)
		sock.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if sock.K.Sock.AlignedWrites != 0 || sock.K.Sock.CopyWrites == 0 {
		t.Fatalf("aligned=%d copy=%d; default must use the plain copy path",
			sock.K.Sock.AlignedWrites, sock.K.Sock.CopyWrites)
	}
}
