package cab

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/sim"
	"repro/internal/units"
)

// onDone is a test SDMA owner: it runs on completion and ignores a kill.
type onDone func(*SDMAReq)

func (f onDone) SDMADone(r *SDMAReq) { f(r) }
func (onDone) SDMAFail(*SDMAReq)     {}

func testRig() (*sim.Engine, *hippi.Network, *CAB, *CAB) {
	e := sim.NewEngine(1)
	n := hippi.NewNetwork(e, hippi.LineRate, 5*units.Microsecond)
	a := New(e, cost.Alpha400(), n, 1, DefaultConfig())
	b := New(e, cost.Alpha400(), n, 2, DefaultConfig())
	return e, n, a, b
}

func TestAllocFreePages(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	total := a.FreePages()
	pk, ok := a.AllocPacket(20 * units.KB) // 3 pages of 8KB
	if !ok || pk.Len() != 20*units.KB {
		t.Fatal("alloc failed")
	}
	if a.FreePages() != total-3 {
		t.Fatalf("free pages = %d, want %d", a.FreePages(), total-3)
	}
	pk.Free()
	if a.FreePages() != total {
		t.Fatalf("pages leaked: %d of %d", a.FreePages(), total)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	pk, _ := a.AllocPacket(100)
	pk.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pk.Free()
}

func TestAllocExhaustionAndWait(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	big, ok := a.AllocPacket(a.Cfg.MemSize) // everything
	if !ok {
		t.Fatal("full-memory alloc failed")
	}
	if _, ok := a.AllocPacket(1); ok {
		t.Fatal("alloc should fail when memory exhausted")
	}
	var gotAt units.Time
	e.Go("waiter", func(p *sim.Proc) {
		pk := a.AllocPacketWait(p, 8*units.KB)
		gotAt = p.Now()
		pk.Free()
	})
	e.At(100*units.Microsecond, func() { big.Free() })
	e.Run()
	if gotAt != 100*units.Microsecond {
		t.Fatalf("waiter satisfied at %v, want 100us", gotAt)
	}
}

// buildPacket creates a (hdrLen+bodyLen)-byte packet image with a seeded
// checksum field at csumOff, returning the image with the seed in place
// and the expected final checksum.
func buildPacket(r *rand.Rand, hdrLen, bodyLen int, csumOff int) (img []byte, want uint16) {
	img = make([]byte, hdrLen+bodyLen)
	r.Read(img)
	img[csumOff], img[csumOff+1] = 0, 0
	want = checksum.Checksum(img) // checksum over the whole packet
	// Host-side seed: sum of the header with a zeroed checksum field.
	seed := checksum.Fold(checksum.Sum(img[:hdrLen]))
	img[csumOff], img[csumOff+1] = byte(seed>>8), byte(seed)
	return img, want
}

func TestSDMATxChecksumSeedProtocol(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	r := rand.New(rand.NewSource(2))
	const hdrLen, bodyLen, csumOff = 80, 3000, 56
	img, want := buildPacket(r, hdrLen, bodyLen, csumOff)

	pk, _ := a.AllocPacket(units.Size(len(img)))
	done := false
	a.SDMA(&SDMAReq{
		Dir:      ToCAB,
		Pkt:      pk,
		Gather:   [][]byte{img[:hdrLen], img[hdrLen:]},
		CsumOff:  csumOff,
		CsumSkip: hdrLen,
		Owner:    onDone(func(*SDMAReq) { done = true }),
	})
	e.Run()
	if !done {
		t.Fatal("SDMA never completed")
	}
	got := uint16(pk.Bytes()[csumOff])<<8 | uint16(pk.Bytes()[csumOff+1])
	if got != want {
		t.Fatalf("hardware checksum %#x, want %#x", got, want)
	}
	if !pk.HasBodySum {
		t.Fatal("body sum not saved")
	}
	// Everything except the checksum field must match the source image.
	img[csumOff], img[csumOff+1] = byte(want>>8), byte(want)
	if !bytes.Equal(pk.Bytes(), img) {
		t.Fatal("packet bytes corrupted")
	}
}

func TestHeaderOnlyRetransmitOverlay(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	r := rand.New(rand.NewSource(3))
	const hdrLen, bodyLen, csumOff = 80, 5000, 56
	img, _ := buildPacket(r, hdrLen, bodyLen, csumOff)

	pk, _ := a.AllocPacket(units.Size(len(img)))
	a.SDMA(&SDMAReq{
		Dir: ToCAB, Pkt: pk, Gather: [][]byte{img},
		CsumOff: csumOff, CsumSkip: hdrLen,
	})
	e.Run()

	// Retransmission: the host supplies a fresh header (e.g. new window
	// field) with a fresh seed; the engine reuses the saved body sum.
	newHdr := make([]byte, hdrLen)
	r.Read(newHdr)
	newHdr[csumOff], newHdr[csumOff+1] = 0, 0
	// Expected checksum: whole packet with the new header.
	full := append(append([]byte{}, newHdr...), img[hdrLen:]...)
	want := checksum.Checksum(full)
	seed := checksum.Fold(checksum.Sum(newHdr))
	newHdr[csumOff], newHdr[csumOff+1] = byte(seed>>8), byte(seed)

	a.SDMA(&SDMAReq{
		Dir: ToCAB, Pkt: pk, Gather: [][]byte{newHdr},
		HeaderOnly: true, CsumOff: csumOff, CsumSkip: hdrLen,
	})
	e.Run()

	got := uint16(pk.Bytes()[csumOff])<<8 | uint16(pk.Bytes()[csumOff+1])
	if got != want {
		t.Fatalf("retransmit checksum %#x, want %#x", got, want)
	}
	if !bytes.Equal(pk.Bytes()[hdrLen:], img[hdrLen:]) {
		t.Fatal("body corrupted by header overlay")
	}
	if a.Stats.RetransmitOverlays != 1 {
		t.Fatalf("overlays = %d, want 1", a.Stats.RetransmitOverlays)
	}
}

func TestSDMAToHostScatter(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	r := rand.New(rand.NewSource(4))
	data := make([]byte, 10000)
	r.Read(data)
	pk, _ := a.AllocPacket(units.Size(len(data)))
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data}})
	e.Run()

	d1, d2 := make([]byte, 3000), make([]byte, 4000)
	a.SDMA(&SDMAReq{
		Dir: ToHost, Pkt: pk, PktOff: 1000,
		Scatter: [][]byte{d1, d2},
	})
	e.Run()
	if !bytes.Equal(d1, data[1000:4000]) || !bytes.Equal(d2, data[4000:8000]) {
		t.Fatal("scatter copy-out mismatch")
	}
}

func TestSDMATiming(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	pk, _ := a.AllocPacket(32 * units.KB)
	data := make([]byte, 32*units.KB)
	var doneAt units.Time
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data},
		Owner: onDone(func(*SDMAReq) { doneAt = e.Now() })})
	e.Run()
	want := a.Mach.DMATime(32 * units.KB)
	if doneAt != want {
		t.Fatalf("SDMA completed at %v, want %v", doneAt, want)
	}
	// The engine serializes: a second request finishes after 2×.
	var secondAt units.Time
	pk2, _ := a.AllocPacket(32 * units.KB)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data}})
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk2, Gather: [][]byte{data},
		Owner: onDone(func(*SDMAReq) { secondAt = e.Now() })})
	e.Run()
	if secondAt != doneAt+2*want {
		t.Fatalf("second SDMA at %v, want %v", secondAt, doneAt+2*want)
	}
}

func TestMediaTransmitAndReceive(t *testing.T) {
	e, _, a, b := testRig()
	defer e.KillAll()
	r := rand.New(rand.NewSource(5))
	data := make([]byte, 12000)
	r.Read(data)

	for i := 0; i < 4; i++ {
		b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
	}
	var ev *RxEvent
	b.OnRx = func(e *RxEvent) { ev = e }

	pk, _ := a.AllocPacket(units.Size(len(data)))
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data},
		Owner: onDone(func(*SDMAReq) { a.MDMATx(pk, 2, nil, nil) })})
	e.Run()

	if ev == nil {
		t.Fatal("no receive event")
	}
	if ev.Pkt.Len() != units.Size(len(data)) {
		t.Fatalf("rx len = %v, want %d", ev.Pkt.Len(), len(data))
	}
	if !bytes.Equal(ev.Pkt.Bytes(), data) {
		t.Fatal("rx bytes mismatch")
	}
	if !bytes.Equal(ev.Buf[:ev.HdrLen], data[:ev.HdrLen]) {
		t.Fatal("auto-DMA head mismatch")
	}
	if ev.HdrLen != b.Cfg.AutoDMALen {
		t.Fatalf("auto-DMA length = %v, want %v", ev.HdrLen, b.Cfg.AutoDMALen)
	}
	want := checksum.Sum(data[b.Cfg.RxCsumSkip:])
	if checksum.Fold(ev.BodySum) != checksum.Fold(want) {
		t.Fatal("receive checksum engine mismatch")
	}
	if a.Stats.TxPackets != 1 || b.Stats.RxPackets != 1 {
		t.Fatalf("stats: tx=%d rx=%d", a.Stats.TxPackets, b.Stats.RxPackets)
	}
	if b.RxBufCount() != 3 {
		t.Fatalf("rx bufs = %d, want 3", b.RxBufCount())
	}
}

// TestIgnoredRxSumStillDrawsFault: a CAB whose driver ignores the receive
// sum (the unmodified personality) computes none — each frame's BodySum is
// the fault mask alone — but consults FaultRxCsum once per frame exactly
// as one that sums, so a fault plan draws the same stream either way.
func TestIgnoredRxSumStillDrawsFault(t *testing.T) {
	for _, ignored := range []bool{false, true} {
		e, _, a, b := testRig()
		b.RxSumIgnored = ignored
		const mask, frames = 0x0100, 3
		draws := 0
		b.FaultRxCsum = func() uint32 { draws++; return mask }
		for i := 0; i < frames; i++ {
			b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
		}
		var sums []uint32
		b.OnRx = func(ev *RxEvent) { sums = append(sums, ev.BodySum); ev.Done() }
		data := make([]byte, 12000)
		rand.New(rand.NewSource(6)).Read(data)
		for i := 0; i < frames; i++ {
			pk, _ := a.AllocPacket(units.Size(len(data)))
			a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data},
				Owner: onDone(func(*SDMAReq) { a.MDMATx(pk, 2, nil, nil) })})
		}
		e.Run()
		e.KillAll()
		want := uint32(mask)
		if !ignored {
			want ^= checksum.Sum(data[b.Cfg.RxCsumSkip:])
		}
		if len(sums) != frames || draws != frames {
			t.Fatalf("ignored %v: %d frames delivered, %d fault draws; want %d of each", ignored, len(sums), draws, frames)
		}
		for i, got := range sums {
			if got != want {
				t.Fatalf("ignored %v: frame %d BodySum %#x, want %#x", ignored, i, got, want)
			}
		}
	}
}

func TestSmallPacketFitsAutoDMA(t *testing.T) {
	e, _, a, b := testRig()
	defer e.KillAll()
	b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
	var ev *RxEvent
	b.OnRx = func(e *RxEvent) { ev = e }
	data := make([]byte, 300) // < AutoDMALen
	pk, _ := a.AllocPacket(300)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{data},
		Owner: onDone(func(*SDMAReq) { a.MDMATx(pk, 2, nil, nil) })})
	e.Run()
	if ev == nil || ev.HdrLen != 300 {
		t.Fatalf("small packet auto-DMA: %+v", ev)
	}
}

func TestRxDropNoBuf(t *testing.T) {
	e, _, a, b := testRig()
	defer e.KillAll()
	got := 0
	b.OnRx = func(*RxEvent) { got++ }
	pk, _ := a.AllocPacket(1000)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{make([]byte, 1000)},
		Owner: onDone(func(*SDMAReq) { a.MDMATx(pk, 2, nil, nil) })})
	e.Run()
	if got != 0 || b.Stats.DropNoBuf != 1 {
		t.Fatalf("got=%d dropNoBuf=%d, want 0/1", got, b.Stats.DropNoBuf)
	}
	// Dropped packets must not leak network memory.
	if b.FreePages() != b.TotalPages() {
		t.Fatalf("pages leaked after drop: %d of %d", b.FreePages(), b.TotalPages())
	}
}

// TestPacketBufferRecycled: a freed packet's network memory is the next
// same-class allocation's, handed out dirty; the full-gather SDMA that is
// the only way to fill a packet leaves none of the old bytes behind; and
// the receiving adaptor keeps the arriving frame's bytes as the packet
// instead of copying them.
func TestPacketBufferRecycled(t *testing.T) {
	e, _, a, b := testRig()
	defer e.KillAll()
	fill := func(pk *Packet, v byte) {
		a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{bytes.Repeat([]byte{v}, int(pk.Len()))}})
		e.Run()
	}
	pk, _ := a.AllocPacket(20 * units.KB)
	fill(pk, 0xaa)
	first := &pk.Bytes()[0]
	pk.Free()
	if pk.Len() != 20*units.KB {
		t.Fatalf("Len after Free = %v, want 20KB", pk.Len())
	}

	// Same class (20 KB), different length.
	pk2, _ := a.AllocPacket(19*units.KB + 1)
	if &pk2.Bytes()[0] != first {
		t.Fatal("same-class allocation did not reuse the freed buffer")
	}
	if pk2.Len() != 19*units.KB+1 || len(pk2.Bytes()) != int(pk2.Len()) {
		t.Fatalf("recycled packet is %v / %d bytes long", pk2.Len(), len(pk2.Bytes()))
	}
	fill(pk2, 0x55)
	if !bytes.Equal(pk2.Bytes(), bytes.Repeat([]byte{0x55}, int(pk2.Len()))) {
		t.Fatal("stale bytes left after a full-gather SDMA")
	}

	// Another class gets another buffer.
	other, _ := a.AllocPacket(8 * units.KB)
	if &other.Bytes()[0] == first {
		t.Fatal("8 KB packet took the 20 KB buffer")
	}

	// Across the wire: the frame is a private copy of the packet, and
	// the receiver adopts it whole.
	b.ProvideRxBuf(make([]byte, b.Cfg.AutoDMALen))
	var ev *RxEvent
	b.OnRx = func(e *RxEvent) { ev = e }
	a.MDMATx(pk2, 2, nil, nil)
	e.Run()
	if ev == nil || !bytes.Equal(ev.Pkt.Bytes(), pk2.Bytes()) {
		t.Fatal("receive mismatch")
	}
	if &ev.Pkt.Bytes()[0] == &pk2.Bytes()[0] {
		t.Fatal("receiver's packet aliases the sender's network memory")
	}
	rx := &ev.Pkt.Bytes()[0]
	ev.Pkt.Free()
	pk3, _ := a.AllocPacket(20 * units.KB)
	if &pk3.Bytes()[0] != rx {
		t.Fatal("sender did not pick up the buffer the receiver released")
	}
}

// TestZappedBufferRetired: a firmware reset wipes a packet the host may
// still hold, so its buffer is never recycled — not by Reset, not by the
// host's late Free — and its Bytes stay zero whatever is allocated next.
func TestZappedBufferRetired(t *testing.T) {
	e, _, a, _ := testRig()
	defer e.KillAll()
	pk, _ := a.AllocPacket(16 * units.KB)
	a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: pk, Gather: [][]byte{bytes.Repeat([]byte{0xee}, 16<<10)}})
	e.Run()
	a.Reset()
	pk.Free() // the host's reference outlived the hardware state: no-op
	if !pk.Zapped() || pk.Len() != 16*units.KB {
		t.Fatalf("zapped=%v len=%v", pk.Zapped(), pk.Len())
	}
	zapped := &pk.Bytes()[0]
	for i := 0; i < 4; i++ {
		fresh, _ := a.AllocPacket(16 * units.KB)
		if &fresh.Bytes()[0] == zapped {
			t.Fatal("zapped packet's buffer was handed out again")
		}
		a.SDMA(&SDMAReq{Dir: ToCAB, Pkt: fresh, Gather: [][]byte{bytes.Repeat([]byte{0x11}, 16<<10)}})
		e.Run()
		fresh.Free()
	}
	if !bytes.Equal(pk.Bytes(), make([]byte, 16<<10)) {
		t.Fatal("zapped packet no longer reads as zeros")
	}
}
