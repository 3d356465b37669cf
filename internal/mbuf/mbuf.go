// Package mbuf implements BSD-style network memory buffers, extended with
// the two new external mbuf types the paper introduces for the single-copy
// path (Section 4.2):
//
//   - M_UIO mbufs describe data that is still in the user's address space
//     (a struct uio region), and
//   - M_WCAB mbufs describe data that already lives in CAB network memory
//     (a wCAB structure holding the outboard packet identifier, its saved
//     body checksum, and how much of the outboard data is valid).
//
// Both carry a uiowCABhdr with the checksum placement information and the
// owner to notify when DMA completes. Because data of every format is
// represented as an mbuf, formatting operations (packetization, header
// prepend, trimming, symbolic range copies for retransmission) work
// uniformly over mixed chains, and the transport and network layers need
// almost no changes — exactly the property the paper exploits.
package mbuf

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/units"
)

// Storage geometry. MLEN follows the paper's mbuf data size of 176 32-bit
// words (the CAB's auto-DMA region is sized to it); clusters are one VM
// page.
const (
	// MLEN is the data capacity of a small (internal storage) mbuf.
	MLEN = 704 * units.Byte
	// HeaderRoom is the space reserved at the front of a packet-header
	// mbuf for link/network/transport headers.
	HeaderRoom = 128 * units.Byte
	// MCLBYTES is the data capacity of a cluster mbuf.
	MCLBYTES = 8 * units.KB
)

// Type identifies an mbuf's storage format.
type Type int

// Mbuf storage formats.
const (
	// TData is a regular mbuf with small internal storage.
	TData Type = iota
	// TCluster is an external-storage mbuf backed by a shared kernel
	// cluster.
	TCluster
	// TUIO is the paper's M_UIO: a descriptor for data in user space.
	TUIO
	// TWCAB is the paper's M_WCAB: a descriptor for data in CAB network
	// memory.
	TWCAB
)

func (t Type) String() string {
	switch t {
	case TData:
		return "data"
	case TCluster:
		return "cluster"
	case TUIO:
		return "uio"
	case TWCAB:
		return "wcab"
	case freed:
		return "freed"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// IsDescriptor reports whether the type holds a descriptor rather than the
// bytes themselves.
func (t Type) IsDescriptor() bool { return t == TUIO || t == TWCAB }

// Notifier receives DMA life-cycle callbacks for descriptor mbufs; the
// socket layer implements it with the outstanding-DMA (UIO) counter that
// synchronizes application wakeup (Section 4.4.2).
type Notifier interface {
	// DMAStarted is called when a DMA covering part of the descriptor is
	// issued.
	DMAStarted(n units.Size)
	// DMADone is called when that DMA completes.
	DMADone(n units.Size)
}

// Hdr is the uiowCABhdr: checksum placement information plus the owner to
// notify, shared by M_UIO and M_WCAB mbufs (Section 4.2, 4.3).
type Hdr struct {
	// NeedCsum tells the driver the hardware must produce the transport
	// checksum during the copy into network memory.
	NeedCsum bool
	// CsumOff is the byte offset of the 16-bit checksum field within the
	// packet.
	CsumOff units.Size
	// CsumSkip is S: the number of bytes at the front of the packet the
	// checksum engine skips (all headers; the host covers them via the
	// seed).
	CsumSkip units.Size
	// CsumSeed is the partial sum of the skipped span (headers plus
	// pseudo-header), placed by the transport layer.
	CsumSeed uint32
	// Owner is notified as DMAs are issued and complete.
	Owner Notifier
	// Abandoned is set by a connection teardown that force-released the
	// descriptor's owner while packets referencing it may still be queued
	// at a driver. Segment copies share this header, so a driver seeing
	// the flag must drop the packet instead of DMAing from user pages
	// that the released writer has since unpinned.
	Abandoned bool

	// OnOutboard, set by the transport on a transmit packet, is told (in
	// interrupt context) once the packet's data resides in network memory,
	// and handed the WCAB descriptor so the transport can convert the
	// corresponding socket-buffer range to M_WCAB for retransmission
	// (Section 4.2).
	OnOutboard OutboardSink
	// FreeAfterSend tells the driver the outboard packet is not
	// retransmittable state (UDP, raw sends): free it once the media
	// transmission completes.
	FreeAfterSend bool
	// OnConverted, set by the transport on a transmit packet headed for a
	// legacy (non-single-copy) device, is invoked when the driver-entry
	// shim has materialized the packet's descriptors into kernel buffers,
	// so the transport can replace the corresponding socket-buffer range
	// and restore copy semantics (Section 5).
	OnConverted func(m *Mbuf)

	// Receive side: the CAB driver records the hardware checksum engine's
	// partial sum over the packet from the device's fixed skip offset, so
	// the transport can verify without reading the data (Section 4.3).
	HWRxValid bool
	HWRxSum   uint32

	// Span, when telemetry or the data-touch ledger is enabled, is the
	// packet's one recorder handle (obs.Span): it follows the packet
	// through the data path and carries its segment identity (flow, stream
	// byte range, retransmit flag) so drivers and devices can attribute
	// their data touches; nil otherwise. Drivers hand it across the
	// hardware boundary so receive processing continues the same span.
	Span *obs.Span

	// DescID is the sosend descriptor id the data came from (0 when the
	// ledger is off or the data did not arrive via a descriptor write).
	DescID int64

	// Flow identifies the transport flow this packet belongs to (the data
	// sender's local port, matching the ledger convention) so the driver
	// and the netmem arbiter can account network-memory pages per flow.
	// Zero means "unattributed" (control traffic, fragments).
	Flow int
}

// OutboardSink takes ownership of a transmitted packet once its data
// resides in network memory (see Hdr.OnOutboard). A transport implements
// it on the per-segment state it builds the packet header into, so the
// header and the callback are one allocation. The driver calls Outboard at
// most once, and Done once in every case, after it has freed the packet's
// chain: the header may then be reused.
type OutboardSink interface {
	Outboard(w *WCAB)
	Done()
}

// WCAB is the paper's wCAB structure: the handle of a packet resident in
// network memory, its hardware-computed body checksum, and how much of the
// outboard data is valid. A driver embeds it in its own per-packet handle
// and points Handle back at that, so one allocation carries both.
type WCAB struct {
	// Handle is the driver's handle on the outboard packet (opaque to the
	// stack): every access to the outboard bytes goes through it.
	Handle Outboard
	// BodySum is the unfolded partial checksum of the packet body
	// (everything past CsumSkip) saved when the data first crossed into
	// network memory; it is what makes retransmission without re-reading
	// the data possible (Section 4.3).
	BodySum uint32
	// Valid is how many bytes of the outboard packet hold valid data.
	Valid units.Size

	refs int
}

// Outboard is a driver's handle on one packet in network memory, in the
// coordinates of the WCAB that carries it (byte 0 is the first byte an
// M_WCAB window can cover).
type Outboard interface {
	// Read returns outboard bytes [off, off+n), for copy-out by the CPU
	// and integrity checks. After a firmware reset it returns the wiped
	// bytes.
	Read(off, n units.Size) []byte
	// CopyOut DMAs outboard bytes [off, off+n) into the host memory
	// segments dst — the driver "copy out" routine the paper's software
	// architecture requires (Section 3). The driver copies the segment
	// list during the call, so the caller may reuse dst at once. to hears
	// how the transfer ended, once, in hardware context: a nil error, or
	// the reason it could not complete (the adaptor was reset mid-transfer
	// and the outboard data is gone), in which case the destination bytes
	// are undefined and must not be delivered.
	CopyOut(off, n units.Size, dst [][]byte, to CopyNotifier)
	// Dead reports that the outboard packet no longer exists (the
	// adaptor's firmware was reset): Read yields wiped bytes and CopyOut
	// fails.
	Dead() bool
	// Free releases the outboard packet. Unref calls it when the last mbuf
	// reference drops (e.g. when TCP's acknowledgements free retransmit
	// data).
	Free()
}

// CopyNotifier receives the outcome of an Outboard.CopyOut of n bytes:
// err is nil on success.
type CopyNotifier interface {
	CopyDone(n units.Size, err error)
}

// Ref increments the reference count.
func (w *WCAB) Ref() { w.refs++ }

// Unref decrements the reference count, freeing the outboard packet at
// zero.
func (w *WCAB) Unref() {
	if w.refs <= 0 {
		panic("mbuf: WCAB over-release")
	}
	w.refs--
	if w.refs == 0 {
		w.Handle.Free()
	}
}

// Refs returns the current reference count.
func (w *WCAB) Refs() int { return w.refs }

// cluster is shared external storage with a reference count. A cluster
// from a Pool's free list owns its MCLBYTES storage and returns to the list
// with it when the last reference drops. An adopted cluster wraps a buffer
// some driver owns: its record returns to the pool's adopted list, and the
// buffer to its home, the driver it came from (nil: it goes to the garbage
// collector, or stays with an owner that may still hold it). A
// cluster with a nil pool came from a package-level constructor and is
// left to the garbage collector.
type cluster struct {
	data    []byte
	refs    int32
	adopted bool
	pool    *Pool
	home    Home
}

// Home takes an adopted buffer back once no mbuf references it.
type Home interface {
	Release(b []byte)
}

// unref drops one reference, releasing the storage with the last.
func (cl *cluster) unref() {
	cl.refs--
	if cl.refs < 0 {
		panic("mbuf: cluster over-release")
	}
	if cl.refs > 0 || cl.pool == nil {
		return
	}
	if !cl.adopted {
		cl.pool.clusters.Put(cl)
		return
	}
	if cl.home != nil {
		cl.home.Release(cl.data)
	}
	cl.pool.adopted.Put(cl)
}

// Pool is one host's mbuf allocator: free lists of mbuf headers (those of
// regular mbufs keep their MLEN storage across reuse), of cluster storage
// and of adopted-cluster records. Every mbuf records the pool it came from,
// so Free returns it there and CopyRange, SplitAt and Prepend take new
// headers from the same place. Objects are handed out dirty (see
// internal/pool): the constructors set every field, and whoever sets a
// cluster's window fills it — the holder of a cluster mbuf can only reach
// its [off, off+ln) window.
//
// A nil *Pool is valid and allocates every object new: the package-level
// constructors are its methods.
type Pool struct {
	mbufs, data pool.List[Mbuf]
	clusters    pool.List[cluster]
	adopted     pool.List[cluster]
}

// Check puts the pool's lists in check mode (tests; see internal/pool). A
// released header reads as freed — Free and Bytes on it panic, and its
// length is negative — and released or new storage is filled with 0xDB, so
// a reader of stale or never-written bytes sees garbage instead of
// plausible old data.
func (p *Pool) Check() {
	poison := func(m *Mbuf) { *m = Mbuf{typ: freed, off: -1, ln: -1} }
	p.mbufs.Check(poison)
	p.data.Check(func(m *Mbuf) {
		buf := m.buf
		if buf == nil {
			buf = make([]byte, MLEN)
		}
		pool.Fill(buf)
		poison(m)
		m.buf = buf
	})
	p.clusters.Check(func(cl *cluster) {
		if cl.data == nil {
			cl.data = make([]byte, MCLBYTES)
		}
		pool.Fill(cl.data)
		cl.refs = -1
	})
	p.adopted.Check(nil)
}

// header returns a blank mbuf header of type t.
func (p *Pool) header(t Type) *Mbuf {
	if p == nil {
		return &Mbuf{typ: t}
	}
	m := p.mbufs.Get()
	*m = Mbuf{typ: t, pool: p}
	return m
}

// freed is the type of a released header: nothing may use it again.
const freed Type = -1

// Mbuf is one buffer in a chain. The zero value is not useful; use the
// New* constructors.
type Mbuf struct {
	typ  Type
	next *Mbuf
	pool *Pool

	// Internal/cluster storage: the data window is buf[off : off+ln].
	buf []byte
	cl  *cluster

	// Descriptor window: [off, off+ln) within the UIO's original
	// coordinates (TUIO) or within the outboard packet (TWCAB).
	uio  *mem.UIO
	wcab *WCAB

	off units.Size
	ln  units.Size

	hdr    *Hdr
	pktHdr bool
	pktLen units.Size
}

// NewData returns a regular mbuf holding a copy of b (which must fit in
// MLEN minus header room if pktHdr).
func NewData(b []byte) *Mbuf { return (*Pool)(nil).NewData(b) }

// NewData is the pool's NewData.
func (p *Pool) NewData(b []byte) *Mbuf {
	n := units.Size(len(b))
	if n > MLEN {
		panic(fmt.Sprintf("mbuf: %v exceeds MLEN %v", n, MLEN))
	}
	var m *Mbuf
	if p == nil {
		m = new(Mbuf)
	} else {
		m = p.data.Get()
	}
	buf := m.buf
	if buf == nil {
		buf = make([]byte, MLEN)
	}
	*m = Mbuf{typ: TData, pool: p, buf: buf}
	// Leave header room so Prepend can extend in place.
	m.off = HeaderRoom
	if m.off+n > MLEN {
		m.off = MLEN - n
	}
	m.ln = n
	copy(m.buf[m.off:], b)
	return m
}

// AllocCluster returns a cluster mbuf of length n (≤ MCLBYTES) whose
// Bytes() the caller is about to fill: the contents are arbitrary.
func AllocCluster(n units.Size) *Mbuf { return (*Pool)(nil).AllocCluster(n) }

// AllocCluster is the pool's AllocCluster.
func (p *Pool) AllocCluster(n units.Size) *Mbuf {
	if n < 0 || n > MCLBYTES {
		panic(fmt.Sprintf("mbuf: %v exceeds MCLBYTES %v", n, MCLBYTES))
	}
	var cl *cluster
	if p == nil {
		cl = new(cluster)
	} else {
		cl = p.clusters.Get()
	}
	if cl.data == nil {
		cl.data = make([]byte, MCLBYTES)
	}
	*cl = cluster{data: cl.data, refs: 1, pool: p}
	m := p.header(TCluster)
	m.cl, m.ln = cl, n
	return m
}

// NewCluster returns a cluster mbuf holding a copy of b (≤ MCLBYTES).
func NewCluster(b []byte) *Mbuf { return (*Pool)(nil).NewCluster(b) }

// NewCluster is the pool's NewCluster.
func (p *Pool) NewCluster(b []byte) *Mbuf {
	m := p.AllocCluster(units.Size(len(b)))
	copy(m.cl.data, b)
	return m
}

// AdoptCluster wraps an existing buffer as external cluster storage
// without copying, exposing the window [off, off+n). Drivers use it to
// loan receive buffers (e.g. the CAB's auto-DMA buffers) directly to the
// stack. The buffer is never released anywhere: its owner may still hold
// it.
func AdoptCluster(b []byte, off, n units.Size) *Mbuf {
	return (*Pool)(nil).AdoptCluster(b, off, n, nil)
}

// AdoptCluster is the pool's AdoptCluster. When the last reference drops,
// b goes back to home (nil: nowhere).
func (p *Pool) AdoptCluster(b []byte, off, n units.Size, home Home) *Mbuf {
	if off < 0 || n < 0 || off+n > units.Size(len(b)) {
		panic(fmt.Sprintf("mbuf: adopt window [%v,+%v) outside %d", off, n, len(b)))
	}
	var cl *cluster
	if p == nil {
		cl = new(cluster)
	} else {
		cl = p.adopted.Get()
	}
	*cl = cluster{data: b, refs: 1, adopted: true, pool: p, home: home}
	m := p.header(TCluster)
	m.cl, m.off, m.ln = cl, off, n
	return m
}

// NewUIO returns an M_UIO descriptor mbuf covering [off, off+n) of u.
func NewUIO(u *mem.UIO, off, n units.Size, hdr *Hdr) *Mbuf {
	return (*Pool)(nil).NewUIO(u, off, n, hdr)
}

// NewUIO is the pool's NewUIO.
func (p *Pool) NewUIO(u *mem.UIO, off, n units.Size, hdr *Hdr) *Mbuf {
	if off < 0 || n < 0 || off+n > u.Total() {
		panic(fmt.Sprintf("mbuf: UIO window [%v,+%v) outside %v", off, n, u.Total()))
	}
	m := p.header(TUIO)
	m.uio, m.off, m.ln, m.hdr = u, off, n, hdr
	return m
}

// NewWCAB returns an M_WCAB descriptor mbuf covering [off, off+n) of the
// outboard packet w, taking a reference.
func NewWCAB(w *WCAB, off, n units.Size, hdr *Hdr) *Mbuf { return (*Pool)(nil).NewWCAB(w, off, n, hdr) }

// NewWCAB is the pool's NewWCAB.
func (p *Pool) NewWCAB(w *WCAB, off, n units.Size, hdr *Hdr) *Mbuf {
	w.Ref()
	m := p.header(TWCAB)
	m.wcab, m.off, m.ln, m.hdr = w, off, n, hdr
	return m
}

// Type returns the mbuf's storage format.
func (m *Mbuf) Type() Type { return m.typ }

// Len returns the mbuf's data length (not the chain's).
func (m *Mbuf) Len() units.Size { return m.ln }

// Next returns the next mbuf in the chain.
func (m *Mbuf) Next() *Mbuf { return m.next }

// SetNext links n after m.
func (m *Mbuf) SetNext(n *Mbuf) { m.next = n }

// Hdr returns the uiowCABhdr, or nil for non-descriptor mbufs that have
// none.
func (m *Mbuf) Hdr() *Hdr { return m.hdr }

// SetHdr attaches a uiowCABhdr.
func (m *Mbuf) SetHdr(h *Hdr) { m.hdr = h }

// Span returns the telemetry span attached to m's header, or nil.
func (m *Mbuf) Span() *obs.Span {
	if m == nil || m.hdr == nil {
		return nil
	}
	return m.hdr.Span
}

// AttachSpan stores sp on m's header, creating an empty header if needed.
// A nil sp is a no-op, so the call is free on uninstrumented paths.
func (m *Mbuf) AttachSpan(sp *obs.Span) {
	if sp == nil {
		return
	}
	if m.hdr == nil {
		m.hdr = &Hdr{}
	}
	m.hdr.Span = sp
}

// DescID returns the sosend descriptor id recorded on m's header (0 when
// none).
func (m *Mbuf) DescID() int64 {
	if m == nil || m.hdr == nil {
		return 0
	}
	return m.hdr.DescID
}

// UIO returns the user-space region descriptor of a TUIO mbuf.
func (m *Mbuf) UIO() *mem.UIO { return m.uio }

// WCABRef returns the outboard descriptor of a TWCAB mbuf.
func (m *Mbuf) WCABRef() *WCAB { return m.wcab }

// Off returns the descriptor window offset (TUIO: within the UIO's
// original coordinates; TWCAB: within the outboard packet).
func (m *Mbuf) Off() units.Size { return m.off }

// MarkPktHdr marks m as the first mbuf of a packet with total length n.
func (m *Mbuf) MarkPktHdr(n units.Size) {
	m.pktHdr = true
	m.pktLen = n
}

// IsPktHdr reports whether m is a packet-header mbuf.
func (m *Mbuf) IsPktHdr() bool { return m.pktHdr }

// PktLen returns the packet length recorded in the packet header.
func (m *Mbuf) PktLen() units.Size { return m.pktLen }

// Bytes returns the live data window of a byte-holding mbuf. It panics for
// descriptor mbufs: their data is not host-memory resident, which is the
// whole point — code that would touch it must go through the driver.
func (m *Mbuf) Bytes() []byte {
	switch m.typ {
	case TData:
		return m.buf[m.off : m.off+m.ln]
	case TCluster:
		return m.cl.data[m.off : m.off+m.ln]
	default:
		panic(fmt.Sprintf("mbuf: Bytes() on a %v mbuf", m.typ))
	}
}

// Prepend grows the data window n bytes at the front, in place if the mbuf
// has leading space, otherwise by returning a new packet-header mbuf
// chained before m. The returned mbuf is the (possibly new) chain head.
func (m *Mbuf) Prepend(n units.Size) *Mbuf {
	if m.typ == TData && m.off >= n {
		m.off -= n
		m.ln += n
		if m.pktHdr {
			m.pktLen += n
		}
		return m
	}
	nm := m.pool.NewData(nil)
	nm.off = HeaderRoom - n
	if nm.off < 0 {
		panic(fmt.Sprintf("mbuf: prepend %v exceeds header room", n))
	}
	nm.ln = n
	nm.next = m
	if m.pktHdr {
		nm.MarkPktHdr(m.pktLen + n)
		m.pktHdr = false
		m.pktLen = 0
	}
	return nm
}

// TrimFront drops n bytes from the front of this single mbuf.
func (m *Mbuf) TrimFront(n units.Size) {
	if n > m.ln {
		panic("mbuf: trim beyond length")
	}
	m.off += n
	m.ln -= n
}

// TrimBack drops n bytes from the back of this single mbuf.
func (m *Mbuf) TrimBack(n units.Size) {
	if n > m.ln {
		panic("mbuf: trim beyond length")
	}
	m.ln -= n
}

// Free releases one mbuf (dropping cluster/WCAB references) to the pool
// it came from and returns its successor. A freed mbuf is dead: a second
// Free or a later Bytes() panics instead of reaching storage that may
// already belong to someone else, and a double release cannot push one
// header onto the free list twice. The last reference to pooled cluster
// storage returns it to the free list.
func (m *Mbuf) Free() *Mbuf {
	next := m.next
	switch m.typ {
	case freed:
		panic("mbuf: double free")
	case TCluster:
		m.cl.unref()
	case TWCAB:
		m.wcab.Unref()
	}
	typ := m.typ
	m.typ, m.next, m.cl, m.uio, m.wcab, m.hdr = freed, nil, nil, nil, nil, nil
	if p := m.pool; p != nil {
		if typ == TData {
			p.data.Put(m)
		} else {
			p.mbufs.Put(m)
		}
	}
	return next
}

// FreeChain releases every mbuf in the chain.
func FreeChain(m *Mbuf) {
	for m != nil {
		m = m.Free()
	}
}
