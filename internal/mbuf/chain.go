package mbuf

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/mem"
	"repro/internal/units"
)

// ChainLen returns the total data length of the chain headed by m.
func ChainLen(m *Mbuf) units.Size {
	var n units.Size
	for ; m != nil; m = m.next {
		n += m.ln
	}
	return n
}

// ChainCount returns the number of mbufs in the chain.
func ChainCount(m *Mbuf) int {
	n := 0
	for ; m != nil; m = m.next {
		n++
	}
	return n
}

// Last returns the final mbuf of the chain.
func Last(m *Mbuf) *Mbuf {
	if m == nil {
		return nil
	}
	for m.next != nil {
		m = m.next
	}
	return m
}

// Cat appends chain b to chain a and returns the head. Either may be nil.
func Cat(a, b *Mbuf) *Mbuf {
	if a == nil {
		return b
	}
	Last(a).next = b
	return a
}

// clone returns a copy of a single mbuf restricted to [off, off+n) of its
// data window, from m's pool, sharing external storage (cluster, UIO
// region, outboard packet) and copying internal storage. This is the m_copy behaviour the
// transmit path depends on: copies are symbolic for everything external.
func (m *Mbuf) clone(off, n units.Size) *Mbuf {
	if off < 0 || n < 0 || off+n > m.ln {
		panic(fmt.Sprintf("mbuf: clone [%v,+%v) outside %v", off, n, m.ln))
	}
	var c *Mbuf
	switch m.typ {
	case TData:
		return m.pool.NewData(m.Bytes()[off : off+n])
	case TCluster:
		m.cl.refs++
		c = m.pool.header(TCluster)
		c.cl = m.cl
	case TUIO:
		c = m.pool.header(TUIO)
		c.uio = m.uio
		if m.hdr != nil {
			m.hdr.refs++
		}
	case TWCAB:
		m.wcab.Ref()
		c = m.pool.header(TWCAB)
		c.wcab = m.wcab
	default:
		panic(fmt.Sprintf("mbuf: clone of a %v mbuf", m.typ))
	}
	c.off, c.ln, c.hdr = m.off+off, n, m.hdr
	return c
}

// CopyRange returns a new chain referencing bytes [off, off+n) of the
// chain headed by m. External storage is shared (reference counted), not
// copied — this is the paper's "search the transmit queue for a block of
// data at a specific offset" routine, which must handle mixed chains
// including M_WCAB mbufs during retransmission (Section 4.2).
func CopyRange(m *Mbuf, off, n units.Size) *Mbuf {
	if n == 0 {
		return nil
	}
	var head, tail *Mbuf
	for cur := m; cur != nil && n > 0; cur = cur.next {
		if off >= cur.ln {
			off -= cur.ln
			continue
		}
		take := cur.ln - off
		if take > n {
			take = n
		}
		c := cur.clone(off, take)
		if head == nil {
			head = c
		} else {
			tail.next = c
		}
		tail = c
		n -= take
		off = 0
	}
	if n > 0 {
		panic(fmt.Sprintf("mbuf: CopyRange ran out of chain with %v left", n))
	}
	return head
}

// AdjFront removes n bytes from the front of the chain and returns the new
// head, freeing fully-consumed mbufs. Used when acknowledged data is
// dropped from a socket buffer.
//
// M_UIO bytes dropped here have their owners notified: data can only be
// acknowledged after it was transmitted, which on every path implies the
// user's bytes were already copied or DMAed out — so a writer blocked on
// the outstanding-DMA counter must be credited even if the driver's
// completion notification is still in flight (it will find the range gone
// and discard its conversion).
func AdjFront(m *Mbuf, n units.Size) *Mbuf {
	for m != nil && n > 0 {
		if n < m.ln {
			m.credit(n)
			m.TrimFront(n)
			return m
		}
		n -= m.ln
		m.credit(m.ln)
		m = m.Free()
	}
	if n > 0 {
		panic(fmt.Sprintf("mbuf: AdjFront beyond chain by %v", n))
	}
	return m
}

// CreditOwners hands every M_UIO mbuf's bytes in the chain back to its
// header's owner: the bytes have left the descriptor — secured outboard,
// materialized into kernel buffers, or, after a reset, never to be sent —
// so the writer's outstanding-DMA counter drops by them (Section 4.4.2).
func CreditOwners(m *Mbuf) {
	for ; m != nil; m = m.next {
		m.credit(m.ln)
	}
}

// AbandonOwners is CreditOwners for a connection teardown that
// force-releases the chain's writers: each M_UIO header is first marked
// Abandoned, so a driver still holding a segment copy that shares it drops
// that packet instead of DMAing from pages the released writer unpins.
func AbandonOwners(m *Mbuf) {
	for ; m != nil; m = m.next {
		if m.typ == TUIO && m.hdr != nil {
			m.hdr.Abandoned = true
		}
		m.credit(m.ln)
	}
}

// credit tells an M_UIO mbuf's owner that n of its bytes left the
// descriptor.
func (m *Mbuf) credit(n units.Size) {
	if m.typ == TUIO && m.hdr != nil && m.hdr.Owner != nil {
		m.hdr.Owner.DMADone(n)
	}
}

// SplitAt splits the chain at byte offset n, returning the two halves.
// Descriptor mbufs are split symbolically. The first half keeps the packet
// header flag if present.
func SplitAt(m *Mbuf, n units.Size) (front, back *Mbuf) {
	if n == 0 {
		return nil, m
	}
	var tail *Mbuf
	front = m
	for cur := m; cur != nil; cur = cur.next {
		if n < cur.ln {
			// Split inside cur: clone the back part.
			b := cur.clone(n, cur.ln-n)
			b.next = cur.next
			cur.TrimBack(cur.ln - n)
			cur.next = nil
			return front, b
		}
		n -= cur.ln
		tail = cur
		if n == 0 {
			back = cur.next
			tail.next = nil
			return front, back
		}
	}
	panic(fmt.Sprintf("mbuf: SplitAt beyond chain by %v", n))
}

// eachRun calls fn, in order, on each contiguous run of the chain's bytes
// [off, off+n) where they lie, for byte-holding and descriptor mbufs alike
// (descriptors are dereferenced through their UIO region or outboard
// handle). fn must not keep or write the slice.
func eachRun(m *Mbuf, off, n units.Size, fn func(b []byte)) {
	for cur := m; cur != nil && n > 0; cur = cur.next {
		if off >= cur.ln {
			off -= cur.ln
			continue
		}
		take := cur.ln - off
		if take > n {
			take = n
		}
		switch cur.typ {
		case TData, TCluster:
			fn(cur.Bytes()[off : off+take])
		case TUIO:
			var sb mem.SegBuf
			for _, seg := range cur.uio.Segments(cur.off+off, take, sb[:0]) {
				fn(cur.uio.Space.Bytes(seg.Addr, seg.Len))
			}
		case TWCAB:
			fn(cur.wcab.Handle.Read(cur.off+off, take)[:take])
		}
		n -= take
		off = 0
	}
	if n > 0 {
		panic(fmt.Sprintf("mbuf: range runs past the end of the chain by %v", n))
	}
}

// ReadRange copies n bytes starting at chain offset off into dst. This is
// the materialization primitive used by integrity checks and by conversion
// shims; the caller is responsible for charging the corresponding cost.
func ReadRange(m *Mbuf, off, n units.Size, dst []byte) {
	if units.Size(len(dst)) < n {
		panic("mbuf: ReadRange destination too small")
	}
	done := 0
	eachRun(m, off, n, func(b []byte) { done += copy(dst[done:], b) })
}

// SumRange returns the ones-complement partial sum of the n bytes starting
// at chain offset off, read where they lie: each run is summed on its own
// and the sums are joined by the concatenation rule (a run that starts on
// an odd offset is byte-swapped in — the paper's Section 4.3 partial-sum
// algebra). Only the folded value is specified, as for checksum.Sum. The
// caller is responsible for charging the read.
func SumRange(m *Mbuf, off, n units.Size) uint32 {
	var sum uint32
	done := 0
	eachRun(m, off, n, func(b []byte) {
		sum = checksum.Combine(sum, checksum.Sum(b), done)
		done += len(b)
	})
	return sum
}

// Materialize returns the chain's full contents as a fresh byte slice.
func Materialize(m *Mbuf) []byte {
	n := ChainLen(m)
	b := make([]byte, n)
	ReadRange(m, 0, n, b)
	return b
}

// HasDescriptors reports whether any mbuf in the chain is a descriptor
// (M_UIO or M_WCAB) — i.e. whether a traditional driver or in-kernel
// application would mis-handle it (Section 5).
func HasDescriptors(m *Mbuf) bool {
	for ; m != nil; m = m.next {
		if m.typ.IsDescriptor() {
			return true
		}
	}
	return false
}

// Types returns the ordered storage types of the chain (diagnostics).
func Types(m *Mbuf) []Type {
	var ts []Type
	for ; m != nil; m = m.next {
		ts = append(ts, m.typ)
	}
	return ts
}
