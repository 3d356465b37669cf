package mem

import "repro/internal/units"

// Iovec is one range: an address, or an offset into a UIO, and a length.
type Iovec struct {
	Addr units.Size
	Len  units.Size
}

// UIO describes the user memory area of a read or write system call. It
// corresponds to the BSD struct uio carried inside the paper's M_UIO mbufs.
// Every system call names one buffer, so a UIO is that buffer, and a range
// [off, off+n) of it is Buf.Slice(off, n), which panics outside the buffer.
// A socket keeps one UIO per direction and points it at each call's buffer
// instead of building one.
type UIO struct {
	Buf Buf
}

// ReadAt copies n bytes starting at offset off into dst, which must be at
// least n long. It returns the bytes copied.
func (u *UIO) ReadAt(dst []byte, off, n units.Size) units.Size {
	return units.Size(copy(dst, u.Buf.Slice(off, n).Bytes()))
}

// WriteAt copies src into the UIO region starting at offset off.
func (u *UIO) WriteAt(src []byte, off units.Size) units.Size {
	return units.Size(copy(u.Buf.Slice(off, units.Size(len(src))).Bytes(), src))
}

// AlignedTo reports whether [off, off+n) starts on an a-byte boundary; an
// empty range is aligned. The CAB's SDMA engine requires 32-bit word
// alignment of host addresses (Section 4.5).
func (u *UIO) AlignedTo(off, n, a units.Size) bool {
	r := u.Buf.Slice(off, n)
	return r.Len == 0 || r.AlignedTo(a)
}
