// Package pool is the simulator's one free-list primitive. Every
// per-packet object with a known lifetime — mbuf headers and clusters,
// wire flights, adaptor packets and their receive state, the drivers' and
// the transport's per-segment records, packet and frame buffers — lives on
// a list owned by one testbed object (a host's kernel, an adaptor, a
// driver, a network) and goes back to it at exactly one release point:
// where its last reference drops.
//
// Lists are single-owner and LIFO: one testbed's engine is one logical
// thread, so no list needs a lock, and the most recently released object
// (the one whose memory is warm) is the next one handed out. Reuse is
// deterministic, so allocation counts repeat exactly from run to run.
//
// Objects are handed out dirty: Get returns whatever the last holder left,
// and the taker sets every field it reads. That is what makes a list cheap,
// and what makes a stale handle dangerous — a holder that keeps a pointer
// past Put reads the next owner's object. Check mode is the guard tests run
// under: a released object is poisoned and quarantined (never handed out
// again), so a use after release reads poison and fails at the access
// instead of silently reading a live stranger; releasing one object twice
// panics; and new objects are handed out poisoned too, so a taker that
// reads a field before setting it sees garbage.
package pool

// List is a free list of *T.
type List[T any] struct {
	free []*T
	chk  *checker[T]
}

type checker[T any] struct {
	poison   func(*T)
	released map[*T]struct{}
}

// Get returns an object with arbitrary contents: a released one if the
// list holds any, otherwise a new one.
func (l *List[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return x
	}
	x := new(T)
	if l.chk != nil {
		l.chk.poison(x)
	}
	return x
}

// Put releases x. The caller must hold the last reference.
func (l *List[T]) Put(x *T) {
	if c := l.chk; c != nil {
		if _, dup := c.released[x]; dup {
			panic("pool: object released twice")
		}
		c.released[x] = struct{}{}
		c.poison(x)
		return
	}
	l.free = append(l.free, x)
}

// Check puts l in check mode (tests): poison overwrites every object the
// list hands out new or takes back, and released objects are quarantined.
// A nil poison zeroes the object. Call it before the first Get.
func (l *List[T]) Check(poison func(*T)) {
	if poison == nil {
		poison = func(x *T) {
			var zero T
			*x = zero
		}
	}
	l.free = nil
	l.chk = &checker[T]{poison: poison, released: make(map[*T]struct{})}
}

// Checking reports whether l is in check mode.
func (l *List[T]) Checking() bool { return l.chk != nil }

// Bytes is the byte-buffer form of List: buffers size-classed by capacity
// in whole kilobytes — fine enough that a buffer is never much larger than
// what it holds (with 8 KB classes an 8 KB + 64 B packet doubled every
// buffer, and the idle half still counts towards the collector's heap
// goal), coarse enough that full-sized packets of every connection share
// one class.
type Bytes struct {
	free     [][][]byte // free[k]: buffers of capacity k*unit
	check    bool
	released map[*byte]struct{}
}

const unit = 1 << 10

// poisonByte fills released and new buffers in check mode.
const poisonByte = 0xdb

// Get returns an n-byte buffer with arbitrary contents.
func (p *Bytes) Get(n int) []byte {
	k := (n + unit - 1) / unit
	if k < len(p.free) {
		if l := p.free[k]; len(l) > 0 {
			b := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[k] = l[:len(l)-1]
			return b[:n]
		}
	}
	b := make([]byte, n, k*unit)
	if p.check {
		Fill(b[:cap(b)])
	}
	return b
}

// Put releases b. The caller must hold the only reference. A buffer that
// did not come from Get (one some other sender built) joins the list if
// its capacity is a whole number of kilobytes and is left to the garbage
// collector otherwise.
func (p *Bytes) Put(b []byte) {
	if cap(b) == 0 || cap(b)%unit != 0 {
		return
	}
	b = b[:cap(b)]
	if p.check {
		if _, dup := p.released[&b[0]]; dup {
			panic("pool: buffer released twice")
		}
		p.released[&b[0]] = struct{}{}
		Fill(b)
		return
	}
	k := cap(b) / unit
	for k >= len(p.free) {
		p.free = append(p.free, nil)
	}
	p.free[k] = append(p.free[k], b)
}

// Check puts p in check mode (tests): buffers are handed out and taken
// back filled with 0xDB, and released buffers are quarantined. Call it
// before the first Get.
func (p *Bytes) Check() {
	p.free = nil
	p.check = true
	p.released = make(map[*byte]struct{})
}

// Fill overwrites b with the poison byte 0xDB (check-mode poison hooks).
func Fill(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
