// Package mem models host memory: per-task address spaces backed by real
// bytes, page-granular pinning state, and the UIO descriptors that
// read/write system calls and M_UIO mbufs use to describe data that is
// still in user space.
//
// The simulator moves real bytes through these spaces so that checksums and
// end-to-end data integrity are genuine; only the *time* the movement takes
// is virtual (charged by the kernel layer from the cost model).
package mem

import (
	"fmt"

	"repro/internal/units"
)

// AddrSpace is one task's (or the kernel's) address space: a flat byte
// array with page-granular pin accounting.
type AddrSpace struct {
	name     string
	pageSize units.Size
	data     []byte
	brk      units.Size // bump-allocator high-water mark
	pinned   []int      // per-page pin reference counts
	mapped   []bool     // per-page "mapped into kernel space" flags
}

// NewAddrSpace returns a size-byte address space with the given page size.
func NewAddrSpace(name string, size, pageSize units.Size) *AddrSpace {
	if pageSize <= 0 || size <= 0 || size%pageSize != 0 {
		panic(fmt.Sprintf("mem: bad address space geometry %v/%v", size, pageSize))
	}
	pages := int(size / pageSize)
	return &AddrSpace{
		name:     name,
		pageSize: pageSize,
		data:     make([]byte, size),
		pinned:   make([]int, pages),
		mapped:   make([]bool, pages),
	}
}

// Name returns the space's diagnostic name.
func (s *AddrSpace) Name() string { return s.name }

// PageSize returns the VM page size.
func (s *AddrSpace) PageSize() units.Size { return s.pageSize }

// Size returns the total size of the space.
func (s *AddrSpace) Size() units.Size { return units.Size(len(s.data)) }

// Alloc carves a new buffer of n bytes aligned to align (power-of-two or
// any positive value; 0 means page-aligned). It panics if the space is
// exhausted — simulation configs should size spaces generously.
func (s *AddrSpace) Alloc(n, align units.Size) Buf {
	if align <= 0 {
		align = s.pageSize
	}
	addr := (s.brk + align - 1) / align * align
	if addr+n > s.Size() {
		panic(fmt.Sprintf("mem: address space %q exhausted (%v + %v > %v)",
			s.name, addr, n, s.Size()))
	}
	s.brk = addr + n
	return Buf{Space: s, Addr: addr, Len: n}
}

// AllocMisaligned allocates n bytes starting misalign bytes past a page
// boundary, to exercise the unaligned-access fallback path.
func (s *AddrSpace) AllocMisaligned(n, misalign units.Size) Buf {
	b := s.Alloc(n+misalign, s.pageSize)
	return Buf{Space: s, Addr: b.Addr + misalign, Len: n}
}

// Bytes returns the live backing bytes for [addr, addr+n).
func (s *AddrSpace) Bytes(addr, n units.Size) []byte {
	if addr < 0 || n < 0 || addr+n > s.Size() {
		panic(fmt.Sprintf("mem: access [%v,+%v) outside space %q", addr, n, s.name))
	}
	return s.data[addr : addr+n]
}

// pageRange returns the page index range [first, last] covering
// [addr, addr+n).
func (s *AddrSpace) pageRange(addr, n units.Size) (int, int) {
	if n <= 0 {
		return 0, -1
	}
	return int(addr / s.pageSize), int((addr + n - 1) / s.pageSize)
}

// PageSpan returns the number of pages covering [addr, addr+n).
func (s *AddrSpace) PageSpan(addr, n units.Size) int {
	first, last := s.pageRange(addr, n)
	if last < first {
		return 0
	}
	return last - first + 1
}

// Pin increments the pin count of every page covering [addr, addr+n) and
// returns the number of pages that became newly pinned (for cost
// accounting: re-pinning an already pinned page is free in the lazy-unpin
// scheme).
func (s *AddrSpace) Pin(addr, n units.Size) int {
	first, last := s.pageRange(addr, n)
	fresh := 0
	for i := first; i <= last; i++ {
		if s.pinned[i] == 0 {
			fresh++
		}
		s.pinned[i]++
	}
	return fresh
}

// Unpin decrements the pin count of every page covering [addr, addr+n).
// It returns the number of pages whose count dropped to zero.
func (s *AddrSpace) Unpin(addr, n units.Size) int {
	first, last := s.pageRange(addr, n)
	freed := 0
	for i := first; i <= last; i++ {
		if s.pinned[i] <= 0 {
			panic(fmt.Sprintf("mem: unpin of unpinned page %d in %q", i, s.name))
		}
		s.pinned[i]--
		if s.pinned[i] == 0 {
			freed++
		}
	}
	return freed
}

// Pinned reports whether every page covering [addr, addr+n) is pinned.
func (s *AddrSpace) Pinned(addr, n units.Size) bool {
	first, last := s.pageRange(addr, n)
	for i := first; i <= last; i++ {
		if s.pinned[i] == 0 {
			return false
		}
	}
	return true
}

// PinnedPages returns the total number of currently pinned pages.
func (s *AddrSpace) PinnedPages() int {
	n := 0
	for _, c := range s.pinned {
		if c > 0 {
			n++
		}
	}
	return n
}

// MapKernel marks pages covering [addr, addr+n) as mapped into kernel
// space and returns the number of pages newly mapped.
func (s *AddrSpace) MapKernel(addr, n units.Size) int {
	first, last := s.pageRange(addr, n)
	fresh := 0
	for i := first; i <= last; i++ {
		if !s.mapped[i] {
			fresh++
			s.mapped[i] = true
		}
	}
	return fresh
}

// UnmapKernel clears the kernel mapping flags for [addr, addr+n).
func (s *AddrSpace) UnmapKernel(addr, n units.Size) {
	first, last := s.pageRange(addr, n)
	for i := first; i <= last; i++ {
		s.mapped[i] = false
	}
}

// MappedKernel reports whether all pages of [addr, addr+n) are mapped into
// kernel space.
func (s *AddrSpace) MappedKernel(addr, n units.Size) bool {
	first, last := s.pageRange(addr, n)
	for i := first; i <= last; i++ {
		if !s.mapped[i] {
			return false
		}
	}
	return true
}

// Buf is a contiguous region of one address space.
type Buf struct {
	Space *AddrSpace
	Addr  units.Size
	Len   units.Size
}

// Bytes returns the live backing bytes of the buffer.
func (b Buf) Bytes() []byte { return b.Space.Bytes(b.Addr, b.Len) }

// Slice returns the sub-buffer [off, off+n).
func (b Buf) Slice(off, n units.Size) Buf {
	if off < 0 || n < 0 || off+n > b.Len {
		panic(fmt.Sprintf("mem: slice [%v,+%v) outside buf of %v", off, n, b.Len))
	}
	return Buf{Space: b.Space, Addr: b.Addr + off, Len: n}
}

// AlignedTo reports whether the buffer's start address is a multiple of a.
func (b Buf) AlignedTo(a units.Size) bool { return a > 0 && b.Addr%a == 0 }
