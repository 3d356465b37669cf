package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/mem"
	"repro/internal/units"
)

func testSpace() *mem.AddrSpace {
	return mem.NewAddrSpace("user", 1*units.MB, 8*units.KB)
}

func seq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestNewDataRoundTrip(t *testing.T) {
	b := seq(100)
	m := NewData(b)
	if m.Type() != TData || m.Len() != 100 {
		t.Fatalf("type=%v len=%v", m.Type(), m.Len())
	}
	if !bytes.Equal(m.Bytes(), b) {
		t.Fatal("data mismatch")
	}
}

func TestNewDataTooBigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewData(make([]byte, int(MLEN)+1))
}

func TestPrependInPlace(t *testing.T) {
	m := NewData(seq(10))
	m.MarkPktHdr(10)
	m2 := m.Prepend(20)
	if m2 != m {
		t.Fatal("prepend should reuse header room")
	}
	if m.Len() != 30 || m.PktLen() != 30 {
		t.Fatalf("len=%v pktlen=%v", m.Len(), m.PktLen())
	}
	copy(m.Bytes(), seq(20))
	if !bytes.Equal(m.Bytes()[20:], seq(10)) {
		t.Fatal("original data disturbed by prepend")
	}
}

func TestPrependNewMbufWhenNoRoom(t *testing.T) {
	u := mem.NewUIO(testSpace().Alloc(1000, 4))
	m := NewUIO(u, 0, 1000, nil)
	m.MarkPktHdr(1000)
	head := m.Prepend(40)
	if head == m {
		t.Fatal("descriptor mbuf cannot be prepended in place")
	}
	if head.Next() != m || head.Len() != 40 {
		t.Fatalf("bad new head: len=%v", head.Len())
	}
	if !head.IsPktHdr() || head.PktLen() != 1040 || m.IsPktHdr() {
		t.Fatal("packet header not migrated")
	}
}

func TestClusterSharingRefs(t *testing.T) {
	m := NewCluster(seq(4000))
	c := CopyRange(m, 1000, 2000)
	if c.Type() != TCluster {
		t.Fatalf("copy type = %v, want cluster", c.Type())
	}
	if m.cl.refs != 2 {
		t.Fatalf("refs = %d, want 2", m.cl.refs)
	}
	if !bytes.Equal(c.Bytes(), seq(4000)[1000:3000]) {
		t.Fatal("shared window wrong")
	}
	c.Free()
	if m.cl.refs != 1 {
		t.Fatalf("refs after free = %d, want 1", m.cl.refs)
	}
}

// poisoning makes a cluster's return to the free list visible through a
// slice taken earlier, whether or not the pool then keeps the storage (under
// the race detector sync.Pool drops items at random).
func poisoning(t *testing.T) {
	PoisonFreed(true)
	t.Cleanup(func() { PoisonFreed(false) })
}

func allPoison(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{0xdb}) == len(b)
}

func TestAllocClusterWindow(t *testing.T) {
	m := AllocCluster(3000)
	if m.Type() != TCluster || m.Len() != 3000 || len(m.Bytes()) != 3000 {
		t.Fatalf("AllocCluster(3000): type %v len %v window %d", m.Type(), m.Len(), len(m.Bytes()))
	}
	if len(m.cl.data) != int(MCLBYTES) || !m.cl.pooled || m.cl.refs != 1 {
		t.Fatalf("storage %d bytes, pooled %v, refs %d", len(m.cl.data), m.cl.pooled, m.cl.refs)
	}
	// Whatever a previous owner left behind the window, a copy in shows
	// only the new bytes.
	poisoning(t)
	m.Free()
	n := NewCluster(seq(100))
	if !bytes.Equal(n.Bytes(), seq(100)) {
		t.Fatal("NewCluster window does not hold the copied bytes")
	}
	n.Free()
}

func TestSharedClusterReturnedByLastFree(t *testing.T) {
	poisoning(t)
	m := NewCluster(seq(4000))
	storage := m.cl.data
	c := CopyRange(m, 1000, 2000)
	tail := CopyRange(c, 500, 100)
	m.Free()
	c.Free()
	if !bytes.Equal(tail.Bytes(), seq(4000)[1500:1600]) {
		t.Fatal("the cluster went back to the free list while a copy still referenced it")
	}
	tail.Free()
	if !allPoison(storage) {
		t.Fatal("the last Free did not return the cluster")
	}
}

func TestAdoptedBufferNeverPooled(t *testing.T) {
	poisoning(t)
	buf := seq(int(MCLBYTES)) // cluster-sized, so only ownership keeps it out
	m := AdoptCluster(buf, 64, 1000)
	c := CopyRange(m, 0, 10)
	m.Free()
	c.Free()
	if !bytes.Equal(buf, seq(int(MCLBYTES))) {
		t.Fatal("a buffer adopted from a driver was released to the cluster free list")
	}
}

// A freed cluster mbuf has given its reference up. Before, a second Free on
// one holder of a shared cluster silently dropped the other holder's
// reference, and Bytes() kept reading storage that was no longer its own.
func TestFreedClusterMbufIsDead(t *testing.T) {
	panics := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	m := NewCluster(seq(4000))
	c := CopyRange(m, 0, 4000)
	m.Free()
	panics("second Free of a shared cluster", func() { m.Free() })
	panics("Bytes() after Free", func() { _ = m.Bytes() })
	if c.cl.refs != 1 || !bytes.Equal(c.Bytes(), seq(4000)) {
		t.Fatalf("surviving holder: refs %d", c.cl.refs)
	}
	c.Free()
	panics("second Free of the last holder", func() { c.Free() })
}

// hostPkt is a test outboard packet whose bytes live in host memory.
type hostPkt struct {
	WCAB
	data  []byte
	freed int
}

func newHostPkt(data []byte) *hostPkt {
	p := &hostPkt{data: data}
	p.Handle, p.Valid = p, units.Size(len(data))
	return p
}

func (p *hostPkt) Read(off, n units.Size) []byte { return p.data[off : off+n] }
func (p *hostPkt) Dead() bool                    { return false }
func (p *hostPkt) Free()                         { p.freed++ }
func (p *hostPkt) CopyOut(off, n units.Size, dst [][]byte, to CopyNotifier) {
	for _, d := range dst {
		off += units.Size(copy(d, p.data[off:]))
	}
	to.CopyDone(n, nil)
}

func TestWCABRefCounting(t *testing.T) {
	p := newHostPkt(make([]byte, 100))
	w := &p.WCAB
	m := NewWCAB(w, 0, 100, nil)
	c := CopyRange(m, 50, 25)
	if w.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", w.Refs())
	}
	FreeChain(m)
	if p.freed != 0 {
		t.Fatal("freed too early")
	}
	FreeChain(c)
	if p.freed != 1 {
		t.Fatal("outboard packet not freed at last reference")
	}
}

func TestChainLenAndCat(t *testing.T) {
	a := NewData(seq(10))
	b := NewData(seq(20))
	c := Cat(a, b)
	if ChainLen(c) != 30 || ChainCount(c) != 2 {
		t.Fatalf("len=%v count=%v", ChainLen(c), ChainCount(c))
	}
	if Cat(nil, a) != a {
		t.Fatal("Cat(nil, a) should be a")
	}
}

func TestCopyRangeAcrossMixedChain(t *testing.T) {
	sp := testSpace()
	ub := sp.Alloc(300, 4)
	copy(ub.Bytes(), seq(300))
	u := mem.NewUIO(ub)

	wdata := seq(200)
	for i := range wdata {
		wdata[i] ^= 0xaa
	}
	w := &newHostPkt(wdata).WCAB
	w.Ref() // baseline reference held by the "socket buffer"

	chain := Cat(Cat(NewData(seq(50)), NewUIO(u, 0, 300, nil)), NewWCAB(w, 0, 200, nil))
	whole := Materialize(chain)
	if units.Size(len(whole)) != 550 {
		t.Fatalf("materialized %d bytes, want 550", len(whole))
	}

	// Property: CopyRange materializes to the same bytes as the slice of
	// the full materialization, for random ranges.
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		off := units.Size(r.Intn(550))
		n := units.Size(r.Intn(int(550 - off)))
		c := CopyRange(chain, off, n)
		got := Materialize(c)
		if !bytes.Equal(got, whole[off:off+n]) {
			t.Fatalf("CopyRange(%v,%v) mismatch", off, n)
		}
		FreeChain(c)
	}
}

func TestAdjFront(t *testing.T) {
	chain := Cat(NewData(seq(100)), NewData(seq(100)))
	chain = AdjFront(chain, 150)
	if ChainLen(chain) != 50 || ChainCount(chain) != 1 {
		t.Fatalf("len=%v count=%v", ChainLen(chain), ChainCount(chain))
	}
	if !bytes.Equal(chain.Bytes(), seq(100)[50:]) {
		t.Fatal("wrong bytes after AdjFront")
	}
	chain = AdjFront(chain, 50)
	if chain != nil {
		t.Fatal("fully consumed chain should be nil")
	}
}

func TestAdjFrontFreesWCABRefs(t *testing.T) {
	p := newHostPkt(make([]byte, 100))
	chain := Cat(NewWCAB(&p.WCAB, 0, 100, nil), NewData(seq(10)))
	chain = AdjFront(chain, 100)
	if p.freed != 1 {
		t.Fatalf("freed = %d, want 1", p.freed)
	}
	if ChainLen(chain) != 10 {
		t.Fatalf("remaining = %v, want 10", ChainLen(chain))
	}
}

func TestSplitAt(t *testing.T) {
	sp := testSpace()
	ub := sp.Alloc(1000, 4)
	copy(ub.Bytes(), seq(1000))
	u := mem.NewUIO(ub)
	chain := Cat(NewData(seq(100)), NewUIO(u, 0, 1000, nil))
	whole := Materialize(chain)

	front, back := SplitAt(chain, 600) // splits inside the UIO mbuf
	if ChainLen(front) != 600 || ChainLen(back) != 500 {
		t.Fatalf("front=%v back=%v", ChainLen(front), ChainLen(back))
	}
	got := append(Materialize(front), Materialize(back)...)
	if !bytes.Equal(got, whole) {
		t.Fatal("split lost bytes")
	}

	// Split exactly at an mbuf boundary.
	f2, b2 := SplitAt(front, 100)
	if ChainLen(f2) != 100 || ChainLen(b2) != 500 {
		t.Fatalf("boundary split: %v/%v", ChainLen(f2), ChainLen(b2))
	}
}

func TestSplitAtZero(t *testing.T) {
	m := NewData(seq(10))
	f, b := SplitAt(m, 0)
	if f != nil || b != m {
		t.Fatal("SplitAt 0 should return (nil, chain)")
	}
}

func TestHasDescriptors(t *testing.T) {
	sp := testSpace()
	u := mem.NewUIO(sp.Alloc(100, 4))
	plain := Cat(NewData(seq(10)), NewCluster(seq(100)))
	if HasDescriptors(plain) {
		t.Fatal("plain chain misreported")
	}
	mixed := Cat(NewData(seq(10)), NewUIO(u, 0, 100, nil))
	if !HasDescriptors(mixed) {
		t.Fatal("UIO chain not detected")
	}
}

func TestBytesOnDescriptorPanics(t *testing.T) {
	sp := testSpace()
	u := mem.NewUIO(sp.Alloc(100, 4))
	m := NewUIO(u, 0, 100, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = m.Bytes()
}

func TestReadRangeOffsets(t *testing.T) {
	chain := Cat(NewData(seq(64)), NewCluster(seq(256)))
	dst := make([]byte, 16)
	ReadRange(chain, 60, 16, dst)
	want := append(seq(64)[60:], seq(256)[:12]...)
	if !bytes.Equal(dst, want) {
		t.Fatalf("got %v want %v", dst, want)
	}
}

// TestSumRangeMatchesFlatSum: summing a chain where it lies (per-run sums
// joined by the odd-offset concatenation rule) folds to the same value as
// flattening it first, for random mixed chains — 1-byte and odd-length
// segments, multi-iovec UIO regions, outboard data — and random ranges.
// flat is assembled beside the chain, not read back out of it.
func TestSumRangeMatchesFlatSum(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	sp := mem.NewAddrSpace("user", 4*units.MB, 8*units.KB)
	for iter := 0; iter < 300; iter++ {
		var chain *Mbuf
		var flat []byte
		for seg, nseg := 0, 1+r.Intn(8); seg < nseg; seg++ {
			n := 1 + r.Intn(120)
			if r.Intn(4) == 0 {
				n = 1
			}
			data := make([]byte, n)
			r.Read(data)
			flat = append(flat, data...)
			switch r.Intn(4) {
			case 0:
				chain = Cat(chain, NewData(data))
			case 1:
				chain = Cat(chain, NewCluster(data))
			case 2:
				// Two iovecs, split at a random (often odd) point.
				cut := r.Intn(n + 1)
				b1, b2 := sp.Alloc(units.Size(cut), 1), sp.Alloc(units.Size(n-cut), 1)
				copy(b1.Bytes(), data[:cut])
				copy(b2.Bytes(), data[cut:])
				chain = Cat(chain, NewUIO(mem.NewUIO(b1, b2), 0, units.Size(n), nil))
			case 3:
				chain = Cat(chain, NewWCAB(&newHostPkt(data).WCAB, 0, units.Size(n), nil))
			}
		}
		if !bytes.Equal(Materialize(chain), flat) {
			t.Fatalf("iter %d: Materialize disagrees with the bytes the chain was built from", iter)
		}
		for k := 0; k < 20; k++ {
			off := r.Intn(len(flat) + 1)
			n := r.Intn(len(flat) - off + 1)
			got := checksum.Fold(SumRange(chain, units.Size(off), units.Size(n)))
			if want := checksum.Fold(checksum.Sum(flat[off : off+n])); got != want {
				t.Fatalf("iter %d: SumRange(%d,+%d) folds to %#04x, flat sum %#04x (types %v)",
					iter, off, n, got, want, Types(chain))
			}
		}
	}
}

func TestSplitCopyRangeProperty(t *testing.T) {
	// Property: for random chains, SplitAt(n) preserves content and
	// lengths.
	f := func(lens []uint8, splitSeed uint16) bool {
		var chain *Mbuf
		total := units.Size(0)
		for _, l := range lens {
			n := int(l%100) + 1
			chain = Cat(chain, NewData(seq(n)))
			total += units.Size(n)
		}
		if chain == nil {
			return true
		}
		whole := Materialize(chain)
		n := units.Size(splitSeed) % (total + 1)
		front, back := SplitAt(chain, n)
		if ChainLen(front) != n || ChainLen(back) != total-n {
			return false
		}
		got := append(Materialize(front), Materialize(back)...)
		return bytes.Equal(got, whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTypesDiagnostics(t *testing.T) {
	sp := testSpace()
	u := mem.NewUIO(sp.Alloc(100, 4))
	chain := Cat(NewData(seq(10)), NewUIO(u, 0, 100, nil))
	ts := Types(chain)
	if len(ts) != 2 || ts[0] != TData || ts[1] != TUIO {
		t.Fatalf("types = %v", ts)
	}
	if ts[1].String() != "uio" {
		t.Fatalf("string = %q", ts[1].String())
	}
}
