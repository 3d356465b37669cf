// Package cab is a functional model of the Gigabit Nectar Communication
// Acceleration Board (Section 2): a bank of outboard network memory fed by
// one system DMA engine (SDMA, host ↔ network memory over the IO bus, with
// scatter/gather and a transmit checksum engine) and media DMA engines
// (MDMA, network memory ↔ HIPPI, with a receive checksum engine), plus
// per-destination logical channels for media transmission and automatic
// DMA of each incoming packet's first L bytes into preallocated host
// buffers.
//
// The model is functional — real bytes are stored in network memory and
// real checksums are computed by the "hardware" — and temporal: SDMA
// transfers occupy the simulated IO bus per the machine's DMA timing
// model, and media transmission is serialized by the HIPPI network model.
//
// Packets in network memory always start on a page boundary and occupy
// whole pages except the last (the constraint that forces the host
// software to form complete packets before transfer, Section 2.2).
package cab

import (
	"slices"

	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// Config selects the host-visible CAB parameters.
type Config struct {
	// MemSize is the network memory size.
	MemSize units.Size
	// PageSize is the network memory page size.
	PageSize units.Size
	// AutoDMALen is L: how many leading bytes of each received packet the
	// CAB DMAs into a preallocated host buffer before interrupting.
	AutoDMALen units.Size
	// RxCsumSkip is the fixed offset at which the receive checksum engine
	// starts summing (20 words in the paper's configuration: the HIPPI
	// and IP headers are skipped).
	RxCsumSkip units.Size
	// Channels is the number of logical channels for media transmission.
	Channels int
}

// DefaultConfig returns the configuration used in the paper's experiments.
func DefaultConfig() Config {
	return Config{
		MemSize:    4 * units.MB,
		PageSize:   8 * units.KB,
		AutoDMALen: 784, // link + IP + TCP headers plus one mbuf (176 words) of data
		RxCsumSkip: 80,  // 20 words
		Channels:   8,
	}
}

// RxEvent is delivered to the host (driver) when a packet has arrived and
// its first L bytes have been auto-DMAed into a host buffer. The adaptor
// builds one per received packet; the host may keep it.
type RxEvent struct {
	// Pkt is the packet resident in network memory. For packets that fit
	// entirely within the auto-DMA buffer the driver typically frees it
	// immediately. Nil when the adaptor delivered the frame straight from
	// the auto-DMA buffer under network-memory pressure (the whole packet
	// is then in Buf).
	Pkt *Packet
	// Buf holds the packet's first min(L, len) bytes in host memory.
	Buf []byte
	// HdrLen is how many bytes of Buf are valid.
	HdrLen units.Size
	// Len is the packet's full length on the wire (equals Pkt.Len() when
	// Pkt is non-nil).
	Len units.Size
	// BodySum is the receive checksum engine's unfolded partial sum over
	// the packet from RxCsumSkip to its end, available to the host as
	// soon as the packet is (Section 2.1).
	BodySum uint32
	// Span is the sender's data-path span carried across the wire (nil
	// when telemetry and the ledger are disabled).
	Span *obs.Span
}

// Stats counts adaptor activity.
type Stats struct {
	TxPackets          int
	RxPackets          int
	SDMAOps            int
	SDMABytes          units.Size
	DropNoMem          int // packets dropped: network memory exhausted
	DropNoBuf          int // packets dropped: no auto-DMA host buffer available
	RetransmitOverlays int
	SDMAFails          int // SDMA transfers failed by fault injection (each is retried)
	Resets             int // firmware resets (fault injection)
	SDMAKilled         int // SDMA descriptors killed by a firmware reset
	TxKilled           int // media-transmit descriptors killed by a firmware reset
	RxKilled           int // held rx frames lost to a firmware reset
	RxRetries          int // rx frames held on the link and retried (memory/buffer pressure)
	RxHdrDeliveries    int // rx frames delivered straight from the auto-DMA buffer (netmem pressure)
	ArbWaits           int // tx admissions blocked by the netmem arbiter
	ArbBorrows         int // over-share allocations admitted from slack (arbiter)
	ArbReclaims        int // idle flow registrations reclaimed (arbiter)
}

// CAB is one adaptor instance.
type CAB struct {
	Cfg  Config
	Mach *cost.Machine

	eng    *sim.Engine
	net    *hippi.Network
	nodeID hippi.NodeID

	freePages  int
	totalPages int
	reserved   int
	nextPktID  int
	freeSig    *sim.Signal
	live       map[int]*Packet

	// The SDMA engine (sdma.go): its request queue and the transfer
	// occupying the bus.
	sdmaQ   *sim.Queue[*SDMAReq]
	sdmaCur *SDMAReq

	// The MDMA transmit engine (mdma.go): the logical channels, the signal
	// a post raises, the round-robin position and the frame on the wire.
	channels []*sim.Queue[txEntry]
	txPend   *sim.Signal
	txNext   int
	txCur    txEntry

	// The engines' steps, bound once so that a transfer or a frame
	// allocates nothing.
	sdmaNextFn, sdmaDoneFn, mdmaNextFn, mdmaSentFn, sentFn func()

	rxBufs [][]byte

	// rxHold is the FIFO of frames held on the link under resource
	// pressure (see mdma.go); rxHoldArmed is true while a pump event is
	// pending. With the arbiter installed the hold becomes one FIFO per
	// flow (rxHoldQ), served round-robin from rxRR over the arrival-order
	// flow list rxHoldFlows.
	rxHold      []heldRx
	rxHoldArmed bool
	rxHoldQ     map[int][]heldRx
	rxHoldFlows []int
	rxRR        int

	// OnRx is the host's receive notification (installed by the driver;
	// runs in hardware/event context — the driver is responsible for
	// posting a host interrupt).
	OnRx func(ev *RxEvent)

	// OnReset is the host's firmware-reset notification (installed by the
	// driver; runs in hardware/event context after Reset has wiped the
	// adaptor). The driver re-arms auto-DMA buffers and tells the stack
	// which connections lost adaptor-resident state.
	OnReset func()

	// Fault hooks (nil in production: each guard is a single nil check on
	// the hot path). FaultSDMA, consulted once per SDMA transfer, fails
	// the transfer when true (the engine retries it). FaultTxCsum /
	// FaultRxCsum, consulted once per checksum-engine computation, return
	// a 16-bit xor mask applied to the computed body sum (0: no fault).
	FaultSDMA   func() bool
	FaultTxCsum func() uint32
	FaultRxCsum func() uint32

	Stats Stats

	// Led records the adaptor's DMA data touches in the data-touch ledger
	// (nil when disabled: each record site is a single nil check). Host is
	// the owning host's name, used to re-host telemetry spans when a frame
	// arrives from the wire.
	Led  *ledger.Hook
	Host string

	// pagesUsed tracks network-memory page occupancy (with high-water
	// mark) when telemetry is enabled; nil otherwise.
	pagesUsed *obs.Gauge

	// Arb, when installed (NewArbiter), accounts network-memory pages per
	// flow and arbitrates allocation between flows. Nil means the seed
	// first-come global policy; every hook below is a single nil check.
	Arb *Arbiter
}

// SetObs registers the adaptor's metrics on r (nil: no-op).
func (c *CAB) SetObs(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Func("cab.tx_pkts", func() int64 { return int64(c.Stats.TxPackets) })
	r.Func("cab.rx_pkts", func() int64 { return int64(c.Stats.RxPackets) })
	r.Func("cab.sdma_ops", func() int64 { return int64(c.Stats.SDMAOps) })
	r.Func("cab.sdma_bytes", func() int64 { return int64(c.Stats.SDMABytes) })
	r.Func("cab.drop_no_mem", func() int64 { return int64(c.Stats.DropNoMem) })
	r.Func("cab.drop_no_buf", func() int64 { return int64(c.Stats.DropNoBuf) })
	r.Func("cab.retransmit_overlays", func() int64 { return int64(c.Stats.RetransmitOverlays) })
	r.Func("cab.sdma_fails", func() int64 { return int64(c.Stats.SDMAFails) })
	r.Func("cab.rx_retries", func() int64 { return int64(c.Stats.RxRetries) })
	r.Func("cab.rx_hdr_deliveries", func() int64 { return int64(c.Stats.RxHdrDeliveries) })
	r.Func("cab.arb_waits", func() int64 { return int64(c.Stats.ArbWaits) })
	r.Func("cab.arb_borrows", func() int64 { return int64(c.Stats.ArbBorrows) })
	r.Func("cab.arb_reclaims", func() int64 { return int64(c.Stats.ArbReclaims) })
	r.Func("cab.resets", func() int64 { return int64(c.Stats.Resets) })
	r.Func("cab.sdma_killed", func() int64 { return int64(c.Stats.SDMAKilled) })
	r.Func("cab.tx_killed", func() int64 { return int64(c.Stats.TxKilled) })
	r.Func("cab.rx_killed", func() int64 { return int64(c.Stats.RxKilled) })
	r.Func("cab.arb_flows", func() int64 {
		if c.Arb == nil {
			return 0
		}
		return int64(c.Arb.ActiveFlows())
	})
	c.pagesUsed = r.Gauge("cab.netmem_pages")
}

// New attaches a CAB to the network as node id.
func New(eng *sim.Engine, mach *cost.Machine, net *hippi.Network, id hippi.NodeID, cfg Config) *CAB {
	if cfg.PageSize <= 0 || cfg.MemSize%cfg.PageSize != 0 {
		panic("cab: bad memory geometry")
	}
	if cfg.Channels < 1 {
		cfg.Channels = 1
	}
	c := &CAB{
		Cfg:       cfg,
		Mach:      mach,
		eng:       eng,
		net:       net,
		nodeID:    id,
		freePages: int(cfg.MemSize / cfg.PageSize),
		freeSig:   sim.NewSignal(eng),
		sdmaQ:     sim.NewQueue[*SDMAReq](eng),
		txPend:    sim.NewSignal(eng),
		live:      make(map[int]*Packet),
	}
	c.totalPages = c.freePages
	c.sdmaNextFn, c.sdmaDoneFn = c.sdmaNext, c.sdmaDone
	c.mdmaNextFn, c.mdmaSentFn, c.sentFn = c.mdmaNext, c.mdmaSent, c.frameSent
	for i := 0; i < cfg.Channels; i++ {
		c.channels = append(c.channels, sim.NewQueue[txEntry](eng))
	}
	net.Attach(id, c.rxFrame)
	// Each engine starts with a KindProc event now, the first wake-up a
	// process would have had.
	eng.AfterKind(0, sim.KindProc, c.sdmaNextFn)
	eng.AfterKind(0, sim.KindProc, c.mdmaNextFn)
	return c
}

// NodeID returns the adaptor's network address.
func (c *CAB) NodeID() hippi.NodeID { return c.nodeID }

// FreePages returns the number of unallocated network memory pages.
func (c *CAB) FreePages() int { return c.freePages }

// TotalPages returns the network memory size in pages.
func (c *CAB) TotalPages() int { return c.totalPages }

// Packet is a packet resident in network memory.
type Packet struct {
	cab *CAB
	ID  int
	// buf is the packet's network memory, drawn from the testbed's free
	// list (net.Bufs) and returned to it by Free, which leaves buf nil. A
	// zapped packet keeps its wiped buffer for good.
	buf   []byte
	n     units.Size
	pages int
	flow  int
	freed bool
	// zapped marks a packet wiped by a firmware reset: its pages were
	// bulk-reclaimed, so a later host-side Free is a no-op rather than a
	// double free — the host's reference outlived the hardware state.
	zapped bool

	// BodySum is the transmit checksum engine's saved partial sum over
	// the packet body (beyond CsumSkip); it allows retransmission with a
	// fresh header without re-reading the body (Section 4.3).
	BodySum uint32
	// HasBodySum records whether BodySum is valid.
	HasBodySum bool
}

// Len returns the packet length in bytes; it stays valid after Free.
func (pk *Packet) Len() units.Size { return pk.n }

// Freed reports whether the packet's pages have been returned.
func (pk *Packet) Freed() bool { return pk.freed }

// Owner returns the adaptor holding this packet.
func (pk *Packet) Owner() *CAB { return pk.cab }

// Flow returns the transport flow the packet's pages are accounted to
// (0: unattributed).
func (pk *Packet) Flow() int { return pk.flow }

// Bytes returns the live network memory contents of the packet. A zapped
// packet (firmware reset) yields the wiped — zeroed — memory rather than
// panicking: the host may legitimately hold a stale reference across the
// reset, and the wiped bytes then fail checksum/verification downstream.
func (pk *Packet) Bytes() []byte {
	if pk.freed && !pk.zapped {
		panic("cab: access to freed packet")
	}
	return pk.buf
}

// Zapped reports whether the packet was wiped by a firmware reset (its
// contents are gone; Bytes panics, Free is a no-op).
func (pk *Packet) Zapped() bool { return pk.zapped }

// Free returns the packet's pages to the pool and its buffer to the
// testbed's free list. A zapped packet's buffer is retired instead: the
// host may still hold the packet, and its Bytes must stay wiped.
func (pk *Packet) Free() {
	if pk.zapped {
		return
	}
	if pk.freed {
		panic("cab: double free of packet")
	}
	pk.freed = true
	pk.cab.net.Bufs.Put(pk.buf)
	pk.buf = nil
	pk.cab.freePages += pk.pages
	delete(pk.cab.live, pk.ID)
	pk.cab.pagesUsed.Set(int64(pk.cab.totalPages - pk.cab.freePages))
	if pk.cab.Arb != nil {
		pk.cab.Arb.freeNotify(pk.flow, pk.pages)
	}
	pk.cab.freeSig.Broadcast()
}

// AllocPacket reserves network memory for an n-byte packet. It fails (nil,
// false) when memory is exhausted; callers in process context can use
// AllocPacketWait.
func (c *CAB) AllocPacket(n units.Size) (*Packet, bool) {
	return c.AllocPacketFlow(n, 0)
}

// AllocPacketFlow is AllocPacket with the pages accounted to flow in the
// netmem arbiter (0: unattributed; identical to AllocPacket).
//
// The packet's memory is not cleared: it holds whatever the buffer's last
// user left. The only way to fill a packet is a full-gather SDMA, which
// overwrites every byte (performToCAB panics otherwise), so nothing reads
// network memory before it is written.
func (c *CAB) AllocPacketFlow(n units.Size, flow int) (*Packet, bool) {
	return c.allocPacket(n, flow, nil)
}

// allocPacket reserves pages for an n-byte packet whose network memory is
// buf (an arriving frame's bytes, adopted) or, when buf is nil, a buffer
// from the free list.
func (c *CAB) allocPacket(n units.Size, flow int, buf []byte) (*Packet, bool) {
	if n <= 0 {
		panic("cab: zero-length packet")
	}
	pages := int((n + c.Cfg.PageSize - 1) / c.Cfg.PageSize)
	if pages > c.freePages-c.reserved {
		return nil, false
	}
	c.freePages -= pages
	c.nextPktID++
	if buf == nil {
		buf = c.net.Bufs.Get(int(n))
	}
	pk := &Packet{cab: c, ID: c.nextPktID, buf: buf, n: n, pages: pages, flow: flow}
	c.live[pk.ID] = pk
	c.pagesUsed.Set(int64(c.totalPages - c.freePages))
	if c.Arb != nil {
		c.Arb.allocNotify(flow, pages)
	}
	return pk, true
}

// AllocPacketWait blocks p until network memory for n bytes is available.
func (c *CAB) AllocPacketWait(p *sim.Proc, n units.Size) *Packet {
	return c.AllocPacketWaitFlow(p, n, 0)
}

// AllocPacketWaitFlow is AllocPacketWait with per-flow page accounting.
func (c *CAB) AllocPacketWaitFlow(p *sim.Proc, n units.Size, flow int) *Packet {
	for {
		if pk, ok := c.AllocPacketFlow(n, flow); ok {
			return pk
		}
		c.freeSig.Wait(p)
	}
}

// SetReserve withholds n pages from allocation, shrinking the network
// memory visible to AllocPacket (the netmem-pressure fault mode). Lowering
// the reserve wakes blocked allocators. Pages already allocated are
// unaffected.
func (c *CAB) SetReserve(n int) {
	if n < 0 {
		n = 0
	}
	if n > c.totalPages {
		n = c.totalPages
	}
	old := c.reserved
	c.reserved = n
	if n < old {
		c.freeSig.Broadcast()
	}
}

// Reset models a CAB firmware reset: network memory, in-flight SDMA and
// MDMA descriptors, posted auto-DMA buffers, and all WCAB state (saved body
// sums live inside the wiped packets) vanish at once. Every live packet is
// zapped — host-side references see Freed()==true and a no-op Free — and
// every queued descriptor is killed (its owner hears SDMAFail, never
// SDMADone).
// Runs in hardware/event context; finishes by notifying the driver through
// OnReset so it can re-arm receive and sweep dead connections.
func (c *CAB) Reset() {
	c.Stats.Resets++
	// Network memory: bulk-reclaim every page, in allocation order: each
	// free may wake arbiter waiters, and they must wake in the same order
	// on every run. Host-side holders keep their Packet references but the
	// data is gone.
	for _, pk := range c.liveByAlloc() {
		pk.freed = true
		pk.zapped = true
		for i := range pk.buf {
			pk.buf[i] = 0
		}
		if c.Arb != nil {
			c.Arb.freeNotify(pk.flow, pk.pages)
		}
	}
	c.live = make(map[int]*Packet)
	c.freePages = c.totalPages
	c.pagesUsed.Set(0)
	// SDMA engine: the descriptor queue is wiped. Each killed request's
	// owner hears SDMAFail so host-side waiters are unblocked; SDMADone
	// never fires for a killed transfer. The in-service transfer (if any)
	// is caught by sdmaDone's zapped check when its bus time expires.
	for {
		req, ok := c.sdmaQ.TryGet()
		if !ok {
			break
		}
		c.killSDMA(req)
	}
	// MDMA transmit: logical-channel entries are wiped.
	for _, ch := range c.channels {
		for {
			if _, ok := ch.TryGet(); !ok {
				break
			}
			c.Stats.TxKilled++
		}
	}
	// MDMA receive: frames held on the link against a live adaptor are
	// lost; posted auto-DMA buffers are forgotten (the driver re-arms).
	if n := len(c.rxHold); n > 0 {
		c.Stats.RxKilled += n
		c.rxHold = nil
	}
	for _, flow := range c.rxHoldFlows {
		c.Stats.RxKilled += len(c.rxHoldQ[flow])
	}
	if c.rxHoldQ != nil {
		c.rxHoldQ = make(map[int][]heldRx)
	}
	c.rxHoldFlows = nil
	c.rxBufs = nil
	// Pages are free again; wake any allocator blocked on the old memory.
	c.freeSig.Broadcast()
	if c.OnReset != nil {
		c.OnReset()
	}
}

// liveByAlloc returns the packets in network memory in allocation order.
func (c *CAB) liveByAlloc() []*Packet {
	pks := make([]*Packet, 0, len(c.live))
	for _, pk := range c.live {
		pks = append(pks, pk)
	}
	slices.SortFunc(pks, func(a, b *Packet) int { return a.ID - b.ID })
	return pks
}

// killSDMA fails one descriptor killed by a firmware reset.
func (c *CAB) killSDMA(req *SDMAReq) {
	c.Stats.SDMAKilled++
	if req.Owner != nil {
		req.Owner.SDMAFail(req)
	}
}

// ProvideRxBuf hands the adaptor a preallocated host buffer for auto-DMA
// of incoming packet heads. Buffers must be at least AutoDMALen long.
func (c *CAB) ProvideRxBuf(b []byte) {
	if units.Size(len(b)) < c.Cfg.AutoDMALen {
		panic("cab: auto-DMA buffer too small")
	}
	c.rxBufs = append(c.rxBufs, b)
}

// RxBufCount returns the number of available auto-DMA buffers.
func (c *CAB) RxBufCount() int { return len(c.rxBufs) }
