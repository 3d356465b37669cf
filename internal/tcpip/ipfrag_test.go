package tcpip

import (
	"bytes"
	"testing"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

func TestUDPFragmentationRoundTrip(t *testing.T) {
	r := newRig(t, 60)
	rx, _ := r.sb.UDPBind(9000)
	var got []byte
	r.eng.Go("rx", func(p *sim.Proc) {
		d := rx.RecvFrom(p)
		if d != nil {
			got = mbuf.Materialize(d.Chain)
		}
	})
	data := pattern(48*1024, 3) // far beyond the 8KB pipe MTU
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		var chain *mbuf.Mbuf
		for off := 0; off < len(data); off += int(mbuf.MCLBYTES) {
			e := off + int(mbuf.MCLBYTES)
			if e > len(data) {
				e = len(data)
			}
			chain = mbuf.Cat(chain, mbuf.NewCluster(data[off:e]))
		}
		tx.SendTo(ctx, chain, units.Size(len(data)), r.sb.Addr, 9000)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if !bytes.Equal(got, data) {
		t.Logf("A stats: %+v", r.sa.Stats)
		t.Logf("B stats: %+v", r.sb.Stats)
		t.Fatalf("reassembled datagram mismatch: got %d bytes", len(got))
	}
	if r.sa.Stats.IPFragsOut < 6 {
		t.Fatalf("fragments out = %d, want ≥ 6", r.sa.Stats.IPFragsOut)
	}
	if r.sb.Stats.IPReassembled != 1 {
		t.Fatalf("reassembled = %d, want 1", r.sb.Stats.IPReassembled)
	}
	if len(r.sb.frags) != 0 {
		t.Fatal("reassembly state leaked")
	}
}

// injectFragment hand-delivers one fragment to a stack.
func injectFragment(p *sim.Proc, s *Stack, from *pipeIf, iph wire.IPHdr, payload []byte) {
	b := make([]byte, int(wire.IPHdrLen)+len(payload))
	iph.TotLen = wire.IPHdrLen + units.Size(len(payload))
	iph.Marshal(b)
	copy(b[wire.IPHdrLen:], payload)
	m := mbuf.NewCluster(b)
	m.MarkPktHdr(units.Size(len(b)))
	s.Input(s.K.IntrCtx(p), m, from)
}

func TestReassemblyOutOfOrder(t *testing.T) {
	r := newRig(t, 61)
	rx, _ := r.sb.UDPBind(9000)
	var got []byte
	r.eng.Go("rx", func(p *sim.Proc) {
		if d := rx.RecvFrom(p); d != nil {
			got = mbuf.Materialize(d.Chain)
		}
	})
	// Build a 3-fragment UDP datagram by hand and deliver 2,0,1.
	payload := pattern(48, 9)
	seg := make([]byte, wire.UDPHdrLen+units.Size(len(payload)))
	uh := wire.UDPHdr{SPort: 7, DPort: 9000, Len: units.Size(len(seg))}
	uh.Marshal(seg) // checksum 0: unchecked
	copy(seg[wire.UDPHdrLen:], payload)

	base := wire.IPHdr{ID: 42, TTL: 9, Proto: wire.ProtoUDP, Src: r.sa.Addr, Dst: r.sb.Addr}
	frag := func(off, end int, mf bool) (wire.IPHdr, []byte) {
		h := base
		h.FragOff = units.Size(off)
		h.MF = mf
		return h, seg[off:end]
	}
	r.eng.Go("inject", func(p *sim.Proc) {
		h2, p2 := frag(32, len(seg), false)
		injectFragment(p, r.sb, r.ib, h2, p2)
		h0, p0 := frag(0, 16, true)
		injectFragment(p, r.sb, r.ib, h0, p0)
		h1, p1 := frag(16, 32, true)
		injectFragment(p, r.sb, r.ib, h1, p1)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if !bytes.Equal(got, payload) {
		t.Fatalf("out-of-order reassembly failed: %d bytes", len(got))
	}
}

func TestReassemblyDuplicateFragmentIgnored(t *testing.T) {
	r := newRig(t, 62)
	rx, _ := r.sb.UDPBind(9000)
	var got []byte
	r.eng.Go("rx", func(p *sim.Proc) {
		if d := rx.RecvFrom(p); d != nil {
			got = mbuf.Materialize(d.Chain)
		}
	})
	payload := pattern(40, 4)
	seg := make([]byte, wire.UDPHdrLen+units.Size(len(payload)))
	uh := wire.UDPHdr{SPort: 7, DPort: 9000, Len: units.Size(len(seg))}
	uh.Marshal(seg)
	copy(seg[wire.UDPHdrLen:], payload)
	base := wire.IPHdr{ID: 43, TTL: 9, Proto: wire.ProtoUDP, Src: r.sa.Addr, Dst: r.sb.Addr}
	r.eng.Go("inject", func(p *sim.Proc) {
		h0 := base
		h0.MF = true
		injectFragment(p, r.sb, r.ib, h0, seg[:16])
		injectFragment(p, r.sb, r.ib, h0, seg[:16]) // duplicate
		h1 := base
		h1.FragOff = 16
		injectFragment(p, r.sb, r.ib, h1, seg[16:])
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if !bytes.Equal(got, payload) {
		t.Fatalf("duplicate fragment broke reassembly: %d bytes", len(got))
	}
}

// TestReassemblyFragmentPastEndCannotFillHole: held fragment lengths
// adding up to the total must mean the datagram is covered. A fragment
// lying past the final fragment's end used to stand in for a missing
// middle, and the stack delivered the wrong bytes with a packet header
// shorter than its chain.
func TestReassemblyFragmentPastEndCannotFillHole(t *testing.T) {
	r := newRig(t, 66)
	rx, _ := r.sb.UDPBind(9000)
	delivered := false
	r.eng.Go("rx", func(p *sim.Proc) {
		rx.RecvFrom(p)
		delivered = true
	})
	seg := make([]byte, 80)
	uh := wire.UDPHdr{SPort: 7, DPort: 9000, Len: 40}
	uh.Marshal(seg)
	base := wire.IPHdr{ID: 45, TTL: 9, Proto: wire.ProtoUDP, Src: r.sa.Addr, Dst: r.sb.Addr}
	frag := func(off, end int, mf bool) (wire.IPHdr, []byte) {
		h := base
		h.FragOff, h.MF = units.Size(off), mf
		return h, seg[off:end]
	}
	r.eng.Go("inject", func(p *sim.Proc) {
		h, b := frag(32, 40, false) // the final fragment: 40 bytes in all
		injectFragment(p, r.sb, r.ib, h, b)
		h, b = frag(0, 16, true) // [16, 32) never arrives
		injectFragment(p, r.sb, r.ib, h, b)
		h, b = frag(64, 80, true) // past the end, as long as the hole
		injectFragment(p, r.sb, r.ib, h, b)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if delivered {
		t.Fatal("a datagram with a hole was delivered")
	}
	if r.sb.Stats.IPReassTimeouts != 1 || len(r.sb.frags) != 0 {
		t.Fatalf("timeouts = %d, queues left = %d; want the incomplete datagram evicted", r.sb.Stats.IPReassTimeouts, len(r.sb.frags))
	}
}

func TestReassemblyTimeoutEvicts(t *testing.T) {
	r := newRig(t, 63)
	r.sb.UDPBind(9000)
	base := wire.IPHdr{ID: 44, TTL: 9, Proto: wire.ProtoUDP, Src: r.sa.Addr, Dst: r.sb.Addr}
	r.eng.Go("inject", func(p *sim.Proc) {
		h := base
		h.MF = true
		injectFragment(p, r.sb, r.ib, h, make([]byte, 16)) // never completed
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if r.sb.Stats.IPReassTimeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", r.sb.Stats.IPReassTimeouts)
	}
	if len(r.sb.frags) != 0 {
		t.Fatal("stale reassembly state retained")
	}
}

func TestFragmentedUDPChecksumCoversWholeDatagram(t *testing.T) {
	// Corrupt one middle fragment's payload in flight: the software
	// checksum over the reassembled datagram must reject it.
	r := newRig(t, 64)
	rx, _ := r.sb.UDPBind(9000)
	delivered := false
	r.eng.Go("rx", func(p *sim.Proc) {
		rx.RecvFrom(p)
		delivered = true
	})
	n := 0
	r.ia.drop = func(_ int, data []byte) bool {
		if len(data) > 4000 {
			n++
			if n == 2 {
				data[len(data)-7] ^= 0x08
			}
		}
		return false
	}
	data := pattern(40*1024, 5)
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		var chain *mbuf.Mbuf
		for off := 0; off < len(data); off += int(mbuf.MCLBYTES) {
			e := off + int(mbuf.MCLBYTES)
			if e > len(data) {
				e = len(data)
			}
			chain = mbuf.Cat(chain, mbuf.NewCluster(data[off:e]))
		}
		tx.SendTo(ctx, chain, units.Size(len(data)), r.sb.Addr, 9000)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if delivered {
		t.Fatal("corrupted reassembled datagram delivered")
	}
	if r.sb.Stats.UDPCsumErrors != 1 {
		t.Fatalf("csum errors = %d, want 1", r.sb.Stats.UDPCsumErrors)
	}
}

func TestUDPOversizeDatagramRejected(t *testing.T) {
	r := newRig(t, 65)
	r.eng.Go("tx", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		tx, _ := r.sa.UDPBind(0)
		big := make([]byte, 70*1024) // beyond IPv4's 64KB ceiling
		var chain *mbuf.Mbuf
		for off := 0; off < len(big); off += int(mbuf.MCLBYTES) {
			e := off + int(mbuf.MCLBYTES)
			if e > len(big) {
				e = len(big)
			}
			chain = mbuf.Cat(chain, mbuf.NewCluster(big[off:e]))
		}
		tx.SendTo(ctx, chain, units.Size(len(big)), r.sb.Addr, 9000)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if r.sa.Stats.UDPOversize != 1 {
		t.Fatalf("oversize = %d, want 1", r.sa.Stats.UDPOversize)
	}
	if r.sa.Stats.IPFragsOut != 0 {
		t.Fatal("oversize datagram must not be transmitted")
	}
}
