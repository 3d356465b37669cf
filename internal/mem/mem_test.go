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

// TestUIOOutsidePanics: a range of a UIO is a slice of its one buffer, so
// one reaching past the buffer panics instead of touching its neighbour.
func TestUIOOutsidePanics(t *testing.T) {
	s := space(t)
	u := &UIO{Buf: s.Alloc(100, 4)}
	s.Alloc(100, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("a read past the UIO's buffer should panic")
		}
	}()
	u.ReadAt(make([]byte, 30), 90, 30)
}

// TestUIOWalkAllocBudget pins the UIO accesses the data path makes per
// packet at zero allocations.
func TestUIOWalkAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	s := space(t)
	u := &UIO{Buf: s.Alloc(150, 4)}
	dst := make([]byte, 150)
	allocs := testing.AllocsPerRun(100, func() {
		r := u.Buf.Slice(90, 30)
		s.Pinned(r.Addr, r.Len)
		u.ReadAt(dst, 0, 150)
		u.WriteAt(dst[:40], 80)
		u.AlignedTo(0, 150, 4)
	})
	if allocs != 0 {
		t.Fatalf("UIO accesses allocate %v objects per run, want 0", allocs)
	}
}

func TestUIOReadWriteRoundTrip(t *testing.T) {
	s := space(t)
	r := rand.New(rand.NewSource(3))
	s.Alloc(3, 1)
	u := &UIO{Buf: s.Alloc(410, 1)} // odd address
	data := make([]byte, u.Buf.Len)
	r.Read(data)
	u.WriteAt(data, 0)
	got := make([]byte, u.Buf.Len)
	u.ReadAt(got, 0, u.Buf.Len)
	if !bytes.Equal(got, data) {
		t.Fatal("UIO round trip mismatch")
	}
	part := make([]byte, 100)
	u.ReadAt(part, 300, 100)
	if !bytes.Equal(part, data[300:400]) {
		t.Fatal("partial read mismatch")
	}
	u.WriteAt(data[:7], 401)
	if !bytes.Equal(u.Buf.Bytes()[401:408], data[:7]) {
		t.Fatal("write at an offset landed elsewhere")
	}
}

func TestUIOAlignedTo(t *testing.T) {
	s := space(t)
	aligned := &UIO{Buf: s.Alloc(1000, 4)}
	if !aligned.AlignedTo(0, 1000, 4) {
		t.Fatal("aligned UIO misreported")
	}
	mis := &UIO{Buf: s.AllocMisaligned(1000, 2)}
	if mis.AlignedTo(0, 1000, 4) {
		t.Fatal("misaligned UIO misreported")
	}
	// An interior range can still be aligned if the buffer base plus
	// offset is aligned.
	if !mis.AlignedTo(2, 100, 4) {
		t.Fatal("offset 2 into a 2-misaligned buffer is word aligned")
	}
	// An empty range has no address to misalign.
	if !mis.AlignedTo(0, 0, 4) {
		t.Fatal("an empty range is aligned")
	}
}
