package hippi

// BufPool is a testbed's free list of network-memory-sized buffers: the
// bytes behind CAB packets and the frames CABs put on the wire. It lives on
// the Network because that is the one object every adaptor of a testbed
// shares, so a buffer released by the receiver is the next one the sender
// takes. hippi itself only carries it (see Frame).
//
// Buffers are size-classed by capacity in whole kilobytes — fine enough that
// a buffer is never much larger than its packet (with 8 KB classes an
// 8 KB + 64 B MTU doubled every buffer, and the idle half still counts
// towards the collector's heap goal), coarse enough that the full-sized
// segments of every connection share one class. They are handed out dirty:
// Get does not clear. Every taker is about to overwrite all of it — a
// full-gather SDMA into a fresh packet, or the MDMA engine's copy of a
// packet into a frame — so clearing would be a second pass over bytes
// nobody reads.
type BufPool struct {
	free [][][]byte // free[k]: buffers of capacity k*bufUnit
}

const bufUnit = 1 << 10

// poisonFreed, set only by tests, makes Put fill every released buffer
// with 0xDB so that a reader of stale or never-written bytes sees garbage
// instead of plausible old data.
var poisonFreed bool

// Get returns an n-byte buffer with arbitrary contents.
func (p *BufPool) Get(n int) []byte {
	k := (n + bufUnit - 1) / bufUnit
	if k < len(p.free) {
		if l := p.free[k]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[k] = l[:len(l)-1]
			return b[:n]
		}
	}
	return make([]byte, n, k*bufUnit)
}

// Put releases b for reuse. The caller must hold the only reference. A
// buffer that did not come from Get (a frame built by some other sender)
// joins the list if its capacity is a whole number of kilobytes and is
// left to the garbage collector otherwise.
func (p *BufPool) Put(b []byte) {
	if cap(b) == 0 || cap(b)%bufUnit != 0 {
		return
	}
	k := cap(b) / bufUnit
	if poisonFreed {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xdb
		}
	}
	for k >= len(p.free) {
		p.free = append(p.free, nil)
	}
	p.free[k] = append(p.free[k], b)
}
