package cabdrv

import (
	"bytes"
	"testing"

	"repro/internal/cab"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// rig is two CAB drivers on one switch with capture of delivered packets.
type rig struct {
	eng    *sim.Engine
	ka, kb *kern.Kernel
	ca, cb *cab.CAB
	da, db *Driver
	// rxB captures packets delivered to B's "stack".
	rxB []*mbuf.Mbuf
}

func newRig(t *testing.T, singleCopy bool) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	net := hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond)
	r := &rig{eng: eng}
	r.ka = kern.New("A", eng, cost.Alpha400())
	r.kb = kern.New("B", eng, cost.Alpha400())
	r.ca = cab.New(eng, r.ka.Mach, net, 1, cab.DefaultConfig())
	r.cb = cab.New(eng, r.kb.Mach, net, 2, cab.DefaultConfig())
	r.da = New("cab0", r.ka, r.ca, singleCopy)
	r.db = New("cab0", r.kb, r.cb, singleCopy)
	r.da.Input = func(kern.Ctx, *mbuf.Mbuf, netif.Interface) {}
	r.db.Input = func(ctx kern.Ctx, m *mbuf.Mbuf, from netif.Interface) {
		r.rxB = append(r.rxB, m)
	}
	return r
}

// ipPacket builds a valid IP packet chain around the given transport
// chain (prepending in place when the head has header room, exactly like
// the network layer).
func ipPacket(t *testing.T, payload *mbuf.Mbuf, proto uint8) *mbuf.Mbuf {
	t.Helper()
	n := mbuf.ChainLen(payload)
	hdr := wire.IPHdr{TotLen: wire.IPHdrLen + n, ID: 1, TTL: 30, Proto: proto,
		Src: 0x0a000001, Dst: 0x0a000002}
	// Prepend in place, as IPOutput does, so the packet-level mbuf.Hdr
	// on the chain head survives.
	m := payload.Prepend(wire.IPHdrLen)
	hdr.Marshal(m.Bytes()[:wire.IPHdrLen])
	if !m.IsPktHdr() {
		m.MarkPktHdr(wire.IPHdrLen + n)
	}
	return m
}

func TestOutputDeliversKernelBufferPacket(t *testing.T) {
	r := newRig(t, true)
	payload := make([]byte, 5000)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		r.da.Output(ctx, ipPacket(t, mbuf.NewCluster(payload), 99), 2)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(r.rxB) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(r.rxB))
	}
	got := mbuf.Materialize(r.rxB[0])
	if !bytes.Equal(got[wire.IPHdrLen:], payload) {
		t.Fatal("payload corrupted")
	}
	// The packet-length invariant must hold on delivery.
	if r.rxB[0].PktLen() != mbuf.ChainLen(r.rxB[0]) {
		t.Fatalf("pktlen %v != chain %v", r.rxB[0].PktLen(), mbuf.ChainLen(r.rxB[0]))
	}
}

// TestUnmodifiedIgnoresRxSum: the driver tells its CAB at attach whether
// it reads the receive sum; only the single-copy personality does.
func TestUnmodifiedIgnoresRxSum(t *testing.T) {
	for _, singleCopy := range []bool{false, true} {
		r := newRig(t, singleCopy)
		if got := r.cb.RxSumIgnored; got == singleCopy {
			t.Errorf("single-copy %v: RxSumIgnored %v, want %v", singleCopy, got, !singleCopy)
		}
		r.eng.KillAll()
	}
}

func TestSingleCopyRxDeliversWCAB(t *testing.T) {
	r := newRig(t, true)
	big := make([]byte, 20000)
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		r.da.Output(ctx, ipPacket(t, mbuf.NewCluster(big[:8000]), 99), 2)
		r.da.Output(ctx, ipPacket(t, mbuf.NewData(big[:100]), 99), 2)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(r.rxB) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(r.rxB))
	}
	// Large packet: head + M_WCAB body; small packet: regular only.
	if !mbuf.HasDescriptors(r.rxB[0]) {
		t.Fatal("large packet should carry an M_WCAB descriptor")
	}
	if mbuf.HasDescriptors(r.rxB[1]) {
		t.Fatal("small packet should be regular")
	}
	if r.db.Stats.RxLarge != 1 || r.db.Stats.RxSmall != 1 {
		t.Fatalf("rx stats: %+v", r.db.Stats)
	}
	// Hardware checksum info must be attached in both cases.
	for i, m := range r.rxB {
		if h := m.Hdr(); h == nil || !h.HWRxValid {
			t.Fatalf("packet %d lacks hardware checksum", i)
		}
	}
}

func TestLegacyRxFullyMaterialized(t *testing.T) {
	r := newRig(t, false)
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		r.da.Output(ctx, ipPacket(t, mbuf.NewCluster(make([]byte, 8000)), 99), 2)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(r.rxB) != 1 {
		t.Fatalf("delivered %d packets", len(r.rxB))
	}
	if mbuf.HasDescriptors(r.rxB[0]) {
		t.Fatal("legacy driver must deliver regular mbufs only")
	}
	if h := r.rxB[0].Hdr(); h != nil && h.HWRxValid {
		t.Fatal("legacy driver must not attach hardware checksums")
	}
	// Network memory fully drained after materialization.
	if r.cb.FreePages() != r.cb.TotalPages() {
		t.Fatal("legacy rx leaked network memory")
	}
}

func TestLegacyOutputConvertsDescriptors(t *testing.T) {
	r := newRig(t, false)
	space := mem.NewAddrSpace("u", 1*units.MB, r.ka.Mach.PageSize)
	buf := space.Alloc(4000, 4)
	u := &mem.UIO{Buf: buf}
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		r.da.Output(ctx, ipPacket(t, mbuf.NewUIO(u, 0, 4000, nil), 99), 2)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if r.da.Stats.Converted != 1 {
		t.Fatalf("conversions = %d, want 1", r.da.Stats.Converted)
	}
	if len(r.rxB) != 1 {
		t.Fatal("packet lost")
	}
}

func TestUIOGatherWithOutboardChecksum(t *testing.T) {
	r := newRig(t, true)
	space := mem.NewAddrSpace("u", 1*units.MB, r.ka.Mach.PageSize)
	buf := space.Alloc(6000, 4)
	for i := range buf.Bytes() {
		buf.Bytes()[i] = byte(i * 13)
	}
	u := &mem.UIO{Buf: buf}
	var w *mbuf.WCAB
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		space.Pin(buf.Addr, buf.Len)
		// A TCP-style packet: transport header + UIO payload, with the
		// outboard checksum directive and seed.
		segTotal := wire.TCPHdrLen + units.Size(6000)
		th := wire.TCPHdr{SPort: 1, DPort: 2, Seq: 100, Ack: 0, Flags: wire.FlagACK}
		hb := make([]byte, wire.TCPHdrLen)
		th.Marshal(hb)
		ps := checksum.PseudoHeaderSum(0x0a000001, 0x0a000002, wire.ProtoTCP, uint32(segTotal))
		seed := checksum.Fold(checksum.Add(ps, checksum.Sum(hb)))
		th.Csum = seed
		th.Marshal(hb)
		hm := mbuf.NewData(hb)
		hm.SetNext(mbuf.NewUIO(u, 0, 6000, nil))
		hm.MarkPktHdr(segTotal)
		hm.SetHdr(&mbuf.Hdr{
			CsumOff:    wire.TCPCsumOff,
			CsumSkip:   wire.TCPHdrLen,
			OnOutboard: keepWCAB{&w},
		})
		r.da.Output(ctx, ipPacket(t, hm, wire.ProtoTCP), 2)
	})
	r.eng.Run()
	defer r.eng.KillAll()
	if len(r.rxB) != 1 {
		t.Fatal("packet lost")
	}
	// The delivered frame's transport checksum must verify end to end.
	m := r.rxB[0]
	seg := mbuf.Materialize(m)[wire.IPHdrLen:]
	ps := checksum.PseudoHeaderSum(0x0a000001, 0x0a000002, wire.ProtoTCP, uint32(len(seg)))
	if !checksum.VerifySum(checksum.Add(ps, checksum.Sum(seg))) {
		t.Fatal("hardware-produced checksum invalid")
	}
	// The transport received its WCAB handle.
	if w == nil {
		t.Fatal("OnOutboard not invoked")
	}
	if w.Valid != 6000 {
		t.Fatalf("WCAB valid = %v, want 6000", w.Valid)
	}
	if !bytes.Equal(w.Handle.Read(0, 6000), buf.Bytes()) {
		t.Fatal("outboard payload mismatch")
	}
	w.Unref() // frees the outboard packet
	if r.ca.FreePages() != r.ca.TotalPages() {
		t.Fatal("outboard packet not freed on unref")
	}
}

func TestMismatchedPktLenPanics(t *testing.T) {
	r := newRig(t, true)
	defer r.eng.KillAll()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on corrupt packet length")
		}
	}()
	r.eng.Go("send", func(p *sim.Proc) {
		ctx := r.ka.TaskCtx(p, r.ka.KernelTask)
		m := mbuf.NewData(make([]byte, 40))
		m.MarkPktHdr(999) // lies about its length
		r.da.Output(ctx, m, 2)
	})
	r.eng.Run()
}

// keepWCAB is a transport stand-in that keeps the outboard packet it is
// handed (taking a reference).
type keepWCAB struct{ w **mbuf.WCAB }

func (keepWCAB) Done() {}

func (k keepWCAB) Outboard(w *mbuf.WCAB) {
	*k.w = w
	w.Ref()
}

// copyLog records copy-out outcomes in completion order.
type copyLog []error

func (l *copyLog) CopyDone(n units.Size, err error) { *l = append(*l, err) }

// receiveBody sends a payload-byte packet from A to B and returns the M_WCAB
// body B's driver passed up, with the payload bytes it must hold.
func receiveBody(t *testing.T, r *rig, payload []byte) (*mbuf.WCAB, []byte) {
	t.Helper()
	r.rxB = nil
	r.eng.Go("send", func(p *sim.Proc) {
		r.da.Output(r.ka.TaskCtx(p, r.ka.KernelTask), ipPacket(t, mbuf.NewCluster(payload), 99), 2)
	})
	r.eng.Run()
	if len(r.rxB) != 1 || r.rxB[0].Next() == nil || r.rxB[0].Next().Type() != mbuf.TWCAB {
		t.Fatalf("want one packet with an M_WCAB body, got %d", len(r.rxB))
	}
	// The auto-DMA head holds the IP header and the payload's first bytes.
	headPayload := int(r.rxB[0].Len() - wire.IPHdrLen)
	return r.rxB[0].Next().WCABRef(), payload[headPayload:]
}

// TestTwoCopyOutsInFlight: one received packet copied out in two pieces
// within one read — two copy-outs in flight on the same outboard packet,
// the second scattered over two segments — delivers both ranges byte-exact,
// and an adaptor reset between the two pieces fails both.
func TestTwoCopyOutsInFlight(t *testing.T) {
	r := newRig(t, true)
	defer r.eng.KillAll()
	payload := make([]byte, 8000)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}

	w, body := receiveBody(t, r, payload)
	n := w.Valid
	if n != units.Size(len(body)) {
		t.Fatalf("body valid %v, want %d", n, len(body))
	}
	a, b := make([]byte, 3000), make([]byte, n-3000)
	var log copyLog
	w.Handle.CopyOut(0, 3000, [][]byte{a}, &log)
	w.Handle.CopyOut(3000, n-3000, [][]byte{b[:1000], b[1000:]}, &log)
	r.eng.Run()
	if len(log) != 2 || log[0] != nil || log[1] != nil {
		t.Fatalf("copy-out outcomes %v, want two successes", log)
	}
	if !bytes.Equal(a, body[:3000]) || !bytes.Equal(b, body[3000:]) {
		t.Fatal("a piece of the copy-out does not match the payload")
	}

	w, _ = receiveBody(t, r, payload)
	log = nil
	w.Handle.CopyOut(0, 3000, [][]byte{a}, &log)
	r.cb.Reset()
	w.Handle.CopyOut(3000, w.Valid-3000, [][]byte{b}, &log)
	r.eng.Run()
	if len(log) != 2 || log[0] != ErrReset || log[1] != ErrReset {
		t.Fatalf("copy-out outcomes %v across a reset, want two ErrReset", log)
	}
}
