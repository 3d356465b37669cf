package mem

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/race"
	"repro/internal/units"
)

func space(t *testing.T) *AddrSpace {
	t.Helper()
	return NewAddrSpace("test", 1*units.MB, 8*units.KB)
}

func TestAllocAlignment(t *testing.T) {
	s := space(t)
	b := s.Alloc(100, 64)
	if b.Addr%64 != 0 {
		t.Fatalf("addr %v not 64-aligned", b.Addr)
	}
	c := s.Alloc(100, 0) // page aligned
	if c.Addr%s.PageSize() != 0 {
		t.Fatalf("addr %v not page-aligned", c.Addr)
	}
	if c.Addr < b.Addr+b.Len {
		t.Fatal("allocations overlap")
	}
}

func TestAllocMisaligned(t *testing.T) {
	s := space(t)
	b := s.AllocMisaligned(100, 2)
	if b.Addr%4 != 2 {
		t.Fatalf("addr %v, want 2 past a word boundary", b.Addr)
	}
	if b.AlignedTo(4) {
		t.Fatal("misaligned buf reports word-aligned")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	s := NewAddrSpace("tiny", 16*units.KB, 8*units.KB)
	s.Alloc(10*units.KB, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected exhaustion panic")
		}
	}()
	s.Alloc(10*units.KB, 1)
}

func TestBytesReadWrite(t *testing.T) {
	s := space(t)
	b := s.Alloc(256, 1)
	copy(b.Bytes(), []byte("hello"))
	if !bytes.Equal(s.Bytes(b.Addr, 5), []byte("hello")) {
		t.Fatal("backing bytes not shared")
	}
}

func TestPinUnpinCounts(t *testing.T) {
	s := space(t)
	b := s.Alloc(20*units.KB, 0) // spans 3 pages
	if got := s.Pin(b.Addr, b.Len); got != 3 {
		t.Fatalf("fresh pins = %d, want 3", got)
	}
	if got := s.Pin(b.Addr, b.Len); got != 0 {
		t.Fatalf("re-pin fresh = %d, want 0", got)
	}
	if !s.Pinned(b.Addr, b.Len) {
		t.Fatal("pages should be pinned")
	}
	if got := s.Unpin(b.Addr, b.Len); got != 0 {
		t.Fatalf("first unpin freed %d, want 0 (refcount 2)", got)
	}
	if got := s.Unpin(b.Addr, b.Len); got != 3 {
		t.Fatalf("second unpin freed %d, want 3", got)
	}
	if s.PinnedPages() != 0 {
		t.Fatalf("pinned pages = %d, want 0", s.PinnedPages())
	}
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	s := space(t)
	b := s.Alloc(100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Unpin(b.Addr, b.Len)
}

func TestMapKernel(t *testing.T) {
	s := space(t)
	b := s.Alloc(20*units.KB, 0)
	if got := s.MapKernel(b.Addr, b.Len); got != 3 {
		t.Fatalf("fresh maps = %d, want 3", got)
	}
	if !s.MappedKernel(b.Addr, b.Len) {
		t.Fatal("should be mapped")
	}
	if got := s.MapKernel(b.Addr, b.Len); got != 0 {
		t.Fatalf("re-map fresh = %d, want 0", got)
	}
	s.UnmapKernel(b.Addr, b.Len)
	if s.MappedKernel(b.Addr, b.Len) {
		t.Fatal("should be unmapped")
	}
}

func TestBufSlice(t *testing.T) {
	s := space(t)
	b := s.Alloc(100, 1)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	sub := b.Slice(10, 20)
	if sub.Len != 20 || sub.Bytes()[0] != 10 {
		t.Fatalf("slice wrong: len=%v first=%d", sub.Len, sub.Bytes()[0])
	}
}

func TestPageSpan(t *testing.T) {
	s := space(t)
	if got := s.PageSpan(0, 8*units.KB); got != 1 {
		t.Fatalf("span = %d, want 1", got)
	}
	if got := s.PageSpan(8*units.KB-1, 2); got != 2 {
		t.Fatalf("span = %d, want 2", got)
	}
	if got := s.PageSpan(0, 0); got != 0 {
		t.Fatalf("span = %d, want 0", got)
	}
}

func TestUIOSegments(t *testing.T) {
	s := space(t)
	a := s.Alloc(100, 4)
	b := s.Alloc(50, 4)
	u := NewUIO(a, b)
	if u.Total() != 150 {
		t.Fatalf("total = %v, want 150", u.Total())
	}
	// A range spanning the buffer boundary yields two segments.
	segs := u.Segments(90, 30, nil)
	if len(segs) != 2 || segs[0].Len != 10 || segs[1].Len != 20 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].Addr != a.Addr+90 || segs[1].Addr != b.Addr {
		t.Fatalf("segment addrs wrong: %+v", segs)
	}
	// Segments appends: what the caller passed in stays in front.
	head := []Iovec{{Addr: 1, Len: 1}}
	if got := u.Segments(0, 150, head); len(got) != 3 || got[0] != head[0] || got[2].Len != 50 {
		t.Fatalf("appended segments = %+v", got)
	}
}

// TestUIOWalkAllocBudget pins the walks the data path makes per packet —
// Segments into a stack SegBuf and everything built on it — at zero
// allocations.
func TestUIOWalkAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := space(t)
	a := s.Alloc(100, 4)
	u := NewUIO(a, s.Alloc(50, 4))
	dst := make([]byte, 150)
	allocs := testing.AllocsPerRun(100, func() {
		var sb SegBuf
		for _, seg := range u.Segments(90, 30, sb[:0]) {
			s.Pinned(seg.Addr, seg.Len)
		}
		u.ReadAt(dst, 0, 150)
		u.WriteAt(dst[:40], 80)
		u.AlignedTo(0, 150, 4)
		u.PageSpan(0, 150)
	})
	if allocs != 0 {
		t.Fatalf("UIO walks allocate %v objects per run, want 0", allocs)
	}
}

func TestUIOReadWriteRoundTrip(t *testing.T) {
	s := space(t)
	r := rand.New(rand.NewSource(3))
	a := s.Alloc(333, 4)
	b := s.Alloc(77, 4)
	u := NewUIO(a, b)
	data := make([]byte, u.Total())
	r.Read(data)
	u.WriteAt(data, 0)
	got := make([]byte, u.Total())
	u.ReadAt(got, 0, u.Total())
	if !bytes.Equal(got, data) {
		t.Fatal("UIO round trip mismatch")
	}
	// Partial read across the seam.
	part := make([]byte, 100)
	u.ReadAt(part, 300, 100)
	if !bytes.Equal(part, data[300:400]) {
		t.Fatal("partial read mismatch")
	}
}

func TestUIOAdvanceResid(t *testing.T) {
	s := space(t)
	u := NewUIO(s.Alloc(1000, 4))
	u.Advance(300)
	if u.Resid() != 700 || u.Offset() != 300 {
		t.Fatalf("resid=%v offset=%v", u.Resid(), u.Offset())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-advance should panic")
		}
	}()
	u.Advance(701)
}

func TestUIOAlignedTo(t *testing.T) {
	s := space(t)
	aligned := NewUIO(s.Alloc(1000, 4))
	if !aligned.AlignedTo(0, 1000, 4) {
		t.Fatal("aligned UIO misreported")
	}
	mis := NewUIO(s.AllocMisaligned(1000, 2))
	if mis.AlignedTo(0, 1000, 4) {
		t.Fatal("misaligned UIO misreported")
	}
	// An interior range starting at an odd segment offset can still be
	// aligned if the segment base plus offset is aligned.
	if !mis.AlignedTo(2, 100, 4) {
		t.Fatal("offset 2 into a 2-misaligned buffer is word aligned")
	}
}

func TestUIOPageSpan(t *testing.T) {
	s := space(t)
	u := NewUIO(s.Alloc(64*units.KB, 0))
	if got := u.PageSpan(0, 64*units.KB); got != 8 {
		t.Fatalf("page span = %d, want 8", got)
	}
	if got := u.PageSpan(8*units.KB-4, 8); got != 2 {
		t.Fatalf("page span = %d, want 2", got)
	}
}
