package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cab"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestTinyNetworkMemoryRecovers starves the receiver's CAB of network
// memory so arriving packets are held on the link (bounded backpressure)
// or, past the hold bound, dropped; the stream must survive intact and
// small frames must keep flowing via direct delivery.
func TestTinyNetworkMemoryRecovers(t *testing.T) {
	tb := NewTestbed(50)
	small := cab.DefaultConfig()
	small.MemSize = 256 * units.KB // 32 pages: less than one window
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2,
		CABConfig: &small})
	tb.RouteCAB(a, b)
	total, ws := units.Size(1*units.MB), units.Size(64*units.KB)

	// A slow reader lets arriving packets accumulate in the starved
	// network memory.
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(ws, 8)
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				return
			}
			p.Sleep(5 * units.Millisecond)
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := st.Space.Alloc(ws, 8)
		for sent := units.Size(0); sent < total; sent += ws {
			pattern(buf.Bytes(), byte(sent/ws))
			if err := s.WriteAll(p, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()
	if !bytes.Equal(got, wantPattern(total, ws)) {
		t.Fatalf("data corrupted with starved network memory (got %d)", len(got))
	}
	if b.CAB.Stats.RxRetries == 0 {
		t.Fatal("vacuous: receiver never ran out of network memory")
	}
	if b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("pages leaked under memory pressure")
	}
}

// TestRxHoldRetryPreservesProvenance pins the ledger attribution of the
// CAB's hold-and-retry receive path: a frame held on the link under memory
// pressure carries its *Prov by value in heldRx, and the SDMA touches
// recorded after the retry finally admits it must still map to stream
// bytes. A regression that drops the provenance in the hold queue turns
// every retried frame's delivery into unattributed bytes, which shows up
// as zero-count gaps in the receiver's per-byte coverage.
func TestRxHoldRetryPreservesProvenance(t *testing.T) {
	tb := NewTestbed(50)
	tb.EnableLedger()
	small := cab.DefaultConfig()
	small.MemSize = 256 * units.KB // 32 pages: less than one window
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2,
		CABConfig: &small})
	tb.RouteCAB(a, b)
	total, ws := units.Size(1*units.MB), units.Size(64*units.KB)

	lis := b.Stk.Listen(port)
	var got units.Size
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(ws, 8)
		for {
			n, err := s.Read(p, buf)
			got += n
			if err != nil {
				return
			}
			p.Sleep(5 * units.Millisecond)
		}
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		buf := st.Space.Alloc(ws, 8)
		for sent := units.Size(0); sent < total; sent += ws {
			if err := s.WriteAll(p, buf); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
		s.Close(p)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()

	if got != total {
		t.Fatalf("delivered %v of %v", got, total)
	}
	if b.CAB.Stats.RxRetries == 0 {
		t.Fatal("vacuous: no frame was ever held and retried")
	}
	led := tb.Led
	flow := led.MainFlow()
	// Delivery conservation with attribution: every stream byte reached
	// host B via a *flow-attributed* DMA (or the documented recovery
	// copy-out). Lost provenance in heldRx would leave the retried frames'
	// byte ranges uncovered.
	audit := led.Audit(flow, total)
	for _, tc := range audit.PerByte(func(r ledger.Record) bool {
		return led.Name(r.Host) == "B" && (r.Kind == ledger.SDMAToHost || r.Kind == ledger.CPUCopy)
	}) {
		if tc.N == 0 {
			t.Fatalf("bytes [%d,%d) were delivered with no attributed record: provenance lost across the rx-hold retry",
				int64(tc.Off), int64(tc.Off+tc.Len))
		}
	}
	// The full single-copy oracle must still certify the run (loose mode:
	// memory-pressure drops force retransmissions).
	if err := led.AssertSingleCopy(ledger.AuditConfig{
		Flow: flow, Total: total, SndHost: "A", RcvHost: "B",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFullDuplexTransfer runs simultaneous transfers in both directions
// over one connection pair (two connections, one per direction), sharing
// the CABs and links.
func TestFullDuplexTransfer(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	const total = 1 * units.MB
	const ws = 64 * units.KB

	run := func(from, to *Host, dst wire.Addr, prt uint16, seed byte, out *[]byte) {
		lis := to.Stk.Listen(prt)
		rt := to.NewUserTask("rcv", 0)
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			s := to.Accept(p, rt, lis)
			buf := rt.Space.Alloc(ws, 8)
			for {
				n, err := s.Read(p, buf)
				if n > 0 {
					*out = append(*out, buf.Slice(0, n).Bytes()...)
				}
				if err != nil {
					return
				}
			}
		})
		st := from.NewUserTask("snd", 0)
		tb.Eng.Go("snd", func(p *sim.Proc) {
			s, err := from.Dial(p, st, dst, prt)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			buf := st.Space.Alloc(ws, 8)
			for sent := units.Size(0); sent < total; sent += ws {
				pattern(buf.Bytes(), seed)
				if err := s.WriteAll(p, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
			s.Close(p)
		})
	}

	var ab, ba []byte
	run(a, b, addrB, 6001, 1, &ab)
	run(b, a, addrA, 6002, 2, &ba)
	tb.Eng.Run()
	tb.Eng.KillAll()

	for _, x := range []struct {
		name string
		got  []byte
		seed byte
	}{{"A→B", ab, 1}, {"B→A", ba, 2}} {
		if units.Size(len(x.got)) != total {
			t.Fatalf("%s: got %d bytes", x.name, len(x.got))
		}
		want := make([]byte, ws)
		pattern(want, x.seed)
		for off := 0; off < len(x.got); off += int(ws) {
			if !bytes.Equal(x.got[off:off+int(ws)], want) {
				t.Fatalf("%s: corrupted at offset %d", x.name, off)
			}
		}
	}
	if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("full-duplex leaked network memory")
	}
}

// TestManyConcurrentConnections multiplexes several streams over one CAB
// pair; each stream must arrive intact and in order.
func TestManyConcurrentConnections(t *testing.T) {
	tb, a, b := twoHosts(socket.ModeSingleCopy)
	const conns = 6
	const total = 512 * units.KB
	const ws = 32 * units.KB

	results := make([][]byte, conns)
	for i := 0; i < conns; i++ {
		i := i
		prt := uint16(7000 + i)
		lis := b.Stk.Listen(prt)
		rt := b.NewUserTask("rcv", 0)
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			s := b.Accept(p, rt, lis)
			buf := rt.Space.Alloc(ws, 8)
			for {
				n, err := s.Read(p, buf)
				if n > 0 {
					results[i] = append(results[i], buf.Slice(0, n).Bytes()...)
				}
				if err != nil {
					return
				}
			}
		})
		st := a.NewUserTask("snd", 0)
		tb.Eng.Go("snd", func(p *sim.Proc) {
			s, err := a.Dial(p, st, addrB, prt)
			if err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
			buf := st.Space.Alloc(ws, 8)
			for sent := units.Size(0); sent < total; sent += ws {
				pattern(buf.Bytes(), byte(i*16)+byte(sent/ws))
				if err := s.WriteAll(p, buf); err != nil {
					t.Errorf("write %d: %v", i, err)
					return
				}
			}
			s.Close(p)
		})
	}
	tb.Eng.Run()
	tb.Eng.KillAll()

	for i := 0; i < conns; i++ {
		if units.Size(len(results[i])) != total {
			t.Fatalf("conn %d: got %d bytes", i, len(results[i]))
		}
		chunk := make([]byte, ws)
		for sent := units.Size(0); sent < total; sent += ws {
			pattern(chunk, byte(i*16)+byte(sent/ws))
			if !bytes.Equal(results[i][sent:sent+ws], chunk) {
				t.Fatalf("conn %d corrupted at %v", i, sent)
			}
		}
	}
	if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("concurrent connections leaked network memory")
	}
}

// TestRandomizedStreamProperty is an end-to-end property test: random
// write sizes (aligned and not), random read sizes, random loss, both
// stack modes — the byte stream must always arrive complete, in order,
// and uncorrupted, and all resources must drain.
func TestRandomizedStreamProperty(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		trial := trial
		mode := socket.ModeSingleCopy
		if trial%2 == 1 {
			mode = socket.ModeUnmodified
		}
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		tb, a, b := twoHosts(mode)
		if trial >= 4 {
			inj := fault.New(tb.Eng, int64(100+trial))
			inj.Add(fault.Rule{Kind: fault.Drop, When: fault.Every(11), MinLen: 1000})
			inj.WireNet(tb.Net)
		}

		// Build a random schedule of writes.
		var writes []units.Size
		var total units.Size
		for total < 1*units.MB {
			w := units.Size(1 + rng.Intn(96*1024))
			writes = append(writes, w)
			total += w
		}
		want := make([]byte, total)
		rng.Read(want)

		lis := b.Stk.Listen(port)
		var got []byte
		rt := b.NewUserTask("rcv", 0)
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			s := b.Accept(p, rt, lis)
			rrng := rand.New(rand.NewSource(int64(trial)))
			for {
				sz := units.Size(1 + rrng.Intn(128*1024))
				buf := rt.Space.Alloc(sz, 8)
				n, err := s.Read(p, buf)
				if n > 0 {
					got = append(got, buf.Slice(0, n).Bytes()...)
				}
				if err != nil {
					return
				}
			}
		})
		st := a.NewUserTask("snd", 32*units.MB)
		tb.Eng.Go("snd", func(p *sim.Proc) {
			s, err := a.Dial(p, st, addrB, port)
			if err != nil {
				t.Errorf("trial %d dial: %v", trial, err)
				return
			}
			off := units.Size(0)
			for _, w := range writes {
				var buf = st.Space.Alloc(w, 8)
				if w > 2 && rng.Intn(3) == 0 {
					// Occasionally misaligned.
					buf = st.Space.AllocMisaligned(w, units.Size(1+rng.Intn(3)))
				}
				copy(buf.Bytes(), want[off:off+w])
				if err := s.WriteAll(p, buf); err != nil {
					t.Errorf("trial %d write: %v", trial, err)
					return
				}
				off += w
			}
			s.Close(p)
		})
		tb.Eng.Run()
		tb.Eng.KillAll()

		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (mode %v): stream mismatch got %d want %d bytes",
				trial, mode, len(got), len(want))
		}
		if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
			t.Fatalf("trial %d: network memory leaked", trial)
		}
		if st.Space.PinnedPages() != 0 || rt.Space.PinnedPages() != 0 {
			t.Fatalf("trial %d: pinned pages leaked", trial)
		}
	}
}

// TestFragmentedUDPOverCABCombinesHardwareChecksums forces UDP
// fragmentation over the CAB (by shrinking the CAB MTU): fragments of the
// single-copy datagram are DMAed symbolically from user pages, and the
// receiver verifies the reassembled datagram by combining the per-fragment
// hardware checksum sums — the host never reads the payload.
func TestFragmentedUDPOverCABCombinesHardwareChecksums(t *testing.T) {
	tb := NewTestbed(55)
	a := tb.AddHost(HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	// Shrink the MTU so a 48KB datagram fragments.
	a.Drv.SetMTU(8 * units.KB)
	b.Drv.SetMTU(8 * units.KB)

	const n = 48 * units.KB
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	rx := socket.MustDGram(b.K, b.VM, rt, b.Stk, 9000, b.SocketConfig())
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		buf := rt.Space.Alloc(n, 8)
		m, _, _ := rx.RecvFrom(p, buf)
		got = append(got, buf.Slice(0, m).Bytes()...)
	})
	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("snd", func(p *sim.Proc) {
		tx := socket.MustDGram(a.K, a.VM, st, a.Stk, 0, a.SocketConfig())
		buf := st.Space.Alloc(n, 8)
		pattern(buf.Bytes(), 77)
		tx.SendTo(p, buf, addrB, 9000)
	})
	tb.Eng.Run()
	tb.Eng.KillAll()

	want := make([]byte, n)
	pattern(want, 77)
	if !bytes.Equal(got, want) {
		t.Fatalf("fragmented datagram corrupted (%d bytes)", len(got))
	}
	if a.Stk.Stats.IPFragsOut < 6 {
		t.Fatalf("fragments out = %d", a.Stk.Stats.IPFragsOut)
	}
	if b.Stk.Stats.IPReassembled != 1 {
		t.Fatalf("reassembled = %d", b.Stk.Stats.IPReassembled)
	}
	// The reassembled verification used combined hardware sums, not a
	// software read.
	if b.Stk.Stats.HWCsumVerified == 0 || b.Stk.Stats.SWCsumVerified != 0 {
		t.Fatalf("hw=%d sw=%d; want hardware-combined verification",
			b.Stk.Stats.HWCsumVerified, b.Stk.Stats.SWCsumVerified)
	}
	if b.K.CategoryTime(kern.CatCsum) != 0 {
		t.Fatal("receiver burned CPU on checksumming despite hardware sums")
	}
	if a.CAB.FreePages() != a.CAB.TotalPages() || b.CAB.FreePages() != b.CAB.TotalPages() {
		t.Fatal("network memory leaked")
	}
}
