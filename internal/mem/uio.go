package mem

import (
	"fmt"

	"repro/internal/units"
)

// Iovec is one contiguous segment of a scatter/gather list.
type Iovec struct {
	Addr units.Size
	Len  units.Size
}

// UIO describes the user memory area of a read or write system call: an
// address space plus an iovec list, with a cursor tracking how much has
// been consumed. It corresponds to the BSD struct uio carried inside the
// paper's M_UIO mbufs.
type UIO struct {
	Space *AddrSpace
	iov   []Iovec
	total units.Size
	done  units.Size // bytes consumed from the front
	// iov0 is iov's storage for the common single-buffer UIO, so building
	// one is one allocation and resetting one is none.
	iov0 [1]Iovec
}

// NewUIO builds a UIO over bufs, which must all belong to the same space.
func NewUIO(bufs ...Buf) *UIO {
	if len(bufs) == 0 {
		panic("mem: UIO needs at least one buffer")
	}
	u := new(UIO)
	u.Reset(bufs[0])
	for _, b := range bufs[1:] {
		if b.Space != u.Space {
			panic("mem: UIO buffers must share one address space")
		}
		if b.Len == 0 {
			continue
		}
		u.iov = append(u.iov, Iovec{Addr: b.Addr, Len: b.Len})
		u.total += b.Len
	}
	return u
}

// Reset makes u describe the single buffer b, nothing consumed, in u's own
// storage: a socket keeps one UIO per direction and resets it for each
// system call instead of building one (a UIO must not be copied after
// Reset, since its iovec list points into it).
func (u *UIO) Reset(b Buf) {
	*u = UIO{Space: b.Space}
	u.iov = u.iov0[:0]
	if b.Len != 0 {
		u.iov = append(u.iov, Iovec{Addr: b.Addr, Len: b.Len})
		u.total = b.Len
	}
}

// Total returns the full byte count the UIO described initially.
func (u *UIO) Total() units.Size { return u.total }

// Resid returns the bytes not yet consumed.
func (u *UIO) Resid() units.Size { return u.total - u.done }

// Offset returns the bytes consumed so far.
func (u *UIO) Offset() units.Size { return u.done }

// Advance consumes n bytes from the front.
func (u *UIO) Advance(n units.Size) {
	if n < 0 || n > u.Resid() {
		panic(fmt.Sprintf("mem: UIO advance %v with resid %v", n, u.Resid()))
	}
	u.done += n
}

// SegBuf is caller-side room for one range's segments: a range of a UIO
// built from one buffer is one segment, and Segments appending into a
// stack-held SegBuf walks it without allocating.
type SegBuf [4]Iovec

// Segments appends to dst the iovec segments covering [off, off+n) in the
// UIO's original (un-consumed) coordinates and returns the extended slice.
// Callers pass a SegBuf's empty slice (sb[:0]) so the walk allocates only
// for ranges of more than four segments.
func (u *UIO) Segments(off, n units.Size, dst []Iovec) []Iovec {
	if off < 0 || n < 0 || off+n > u.total {
		panic(fmt.Sprintf("mem: UIO segments [%v,+%v) outside %v", off, n, u.total))
	}
	out := dst
	pos := units.Size(0)
	for _, v := range u.iov {
		if n == 0 {
			break
		}
		end := pos + v.Len
		if end <= off {
			pos = end
			continue
		}
		start := v.Addr
		avail := v.Len
		if off > pos {
			start += off - pos
			avail -= off - pos
		}
		take := avail
		if take > n {
			take = n
		}
		out = append(out, Iovec{Addr: start, Len: take})
		n -= take
		off += take
		pos = end
	}
	return out
}

// ReadAt copies n bytes starting at offset off (original coordinates) into
// dst, which must be at least n long. It returns the bytes copied.
func (u *UIO) ReadAt(dst []byte, off, n units.Size) units.Size {
	var copied units.Size
	var sb SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		copied += units.Size(copy(dst[copied:], u.Space.Bytes(seg.Addr, seg.Len)))
	}
	return copied
}

// WriteAt copies src into the UIO region starting at offset off.
func (u *UIO) WriteAt(src []byte, off units.Size) units.Size {
	var written units.Size
	n := units.Size(len(src))
	var sb SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		written += units.Size(copy(u.Space.Bytes(seg.Addr, seg.Len), src[written:]))
	}
	return written
}

// AlignedTo reports whether every segment of [off, off+n) starts on an
// a-byte boundary. The CAB's SDMA engine requires 32-bit word alignment of
// host addresses (Section 4.5).
func (u *UIO) AlignedTo(off, n, a units.Size) bool {
	var sb SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		if seg.Addr%a != 0 {
			return false
		}
	}
	return true
}

// PageSpan returns the number of pages covered by [off, off+n).
func (u *UIO) PageSpan(off, n units.Size) int {
	pages := 0
	var sb SegBuf
	for _, seg := range u.Segments(off, n, sb[:0]) {
		pages += u.Space.PageSpan(seg.Addr, seg.Len)
	}
	return pages
}
