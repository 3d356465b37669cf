// Package tcpip implements the Internet protocol stack the paper modifies:
// an IP-style network layer with routing and interface selection, TCP with
// sliding windows, window scaling, and retransmission, and UDP — all
// operating on mbuf chains that may mix regular storage with the M_UIO and
// M_WCAB descriptors of the single-copy path.
//
// The package embodies the paper's central software idea (Section 3): the
// layered stack is kept intact, but formatting operations on data are
// performed symbolically on descriptors, checksum information is carried
// with the descriptor so the checksum can be set up in the transport layer
// yet calculated in the driver/hardware, and all data-touching operations
// collapse into the driver.
package tcpip

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/obs/netobs"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// Stats counts stack-level events.
type Stats struct {
	IPIn, IPOut           int
	IPForwarded           int
	IPDropNoRoute         int
	IPHdrErrors           int
	IPFragsOut, IPFragsIn int
	IPReassembled         int
	IPReassTimeouts       int
	TCPSegsIn, TCPSegsOut int
	TCPCsumErrors         int
	TCPRetransmits        int
	TCPFastRetransmits    int
	TCPRstsIn, TCPRstsOut int
	TCPDropNoConn         int
	TCPOutOfOrder         int
	TCPDupSegs            int
	TCPListenOverflow     int
	TCPKaProbes           int
	TCPLivenessDrops      int
	TCPDeviceResets       int
	UDPIn, UDPOut         int
	UDPCsumErrors         int
	UDPDropNoPort         int
	UDPRcvFull            int
	UDPOversize           int
	UDPDevResetDrops      int
	HWCsumVerified        int
	SWCsumVerified        int
}

// Stack is one host's network stack instance.
type Stack struct {
	K      *kern.Kernel
	Addr   wire.Addr
	Routes *netif.Table
	Stats  Stats

	// Tracer, if set, observes every packet crossing the stack boundary
	// (see TraceEvent).
	Tracer func(TraceEvent)

	// CC selects the congestion-control algorithm for connections created
	// on this stack ("" or "reno" for the classic behavior, "dctcp" for
	// the ECN-reacting variant; see ValidCC). Set before any connections
	// are created.
	CC string

	ipID  uint16
	conns map[connKey]*TCPConn
	// listeners by local port.
	listeners map[uint16]*TCPListener
	udps      map[uint16]*UDPSock
	frags     map[fragKey]*fragQueue
	// Ephemeral port allocator state: next candidate and the inclusive
	// range it cycles over (narrowed by tests to force exhaustion).
	nextPort       uint16
	portLo, portHi uint16

	// spl serializes protocol-machine critical sections. The simulated
	// CPU preempts at charge boundaries, so — exactly like splnet in the
	// original kernel — input processing, output, and timers must not
	// interleave mid-operation. Blocking waits never happen under spl.
	spl *sim.Resource

	// Telemetry (all nil when disabled — the hot paths then skip every
	// telemetry branch without allocating).
	tr              *obs.Trace
	ctrRtoFires     *obs.Counter
	ctrDupAcks      *obs.Counter
	ctrWindowStalls *obs.Counter
	ctrWCABConv     *obs.Counter
	// Queue/window gauges for the utilization time-series sampler: the
	// host-wide aggregates updated by every connection (last writer wins,
	// which for the sampler's per-interval peaks is what we want).
	gSndQ, gRcvQ, gSndWnd *obs.Gauge

	// Transport-dynamics recorder (netobs). nil when disabled; per-conn
	// FlowRecs then stay nil and every hook is a nil no-op.
	nrec  *netobs.Recorder
	nnode int

	// The free lists of armed timers and of outboard-checksummed segment
	// headers (see internal/pool).
	timers pool.List[tcpTimer]
	hwSegs pool.List[hwSeg]
}

// CheckPools puts the stack's free lists in check mode (tests; see
// internal/pool).
func (s *Stack) CheckPools() {
	s.timers.Check(nil)
	s.hwSegs.Check(nil)
}

// SetNetObs attaches the transport-dynamics recorder. node is the host's
// fabric port id, used by the postmortem analyzer to join the flow series
// with the wire telemetry. Call before any connections are created.
func (s *Stack) SetNetObs(rec *netobs.Recorder, node int) {
	s.nrec = rec
	s.nnode = node
}

type connKey struct {
	raddr        wire.Addr
	lport, rport uint16
}

// NewStack returns a stack for host address addr on kernel k. When the
// kernel carries a telemetry registry the stack registers its counters and
// joins the shared data-path trace.
func NewStack(k *kern.Kernel, addr wire.Addr) *Stack {
	s := &Stack{
		K:         k,
		Addr:      addr,
		Routes:    netif.NewTable(),
		conns:     make(map[connKey]*TCPConn),
		listeners: make(map[uint16]*TCPListener),
		udps:      make(map[uint16]*UDPSock),
		frags:     make(map[fragKey]*fragQueue),
		nextPort:  10000,
		portLo:    10000,
		portHi:    65535,
		spl:       sim.NewResource(k.Eng, 1),
	}
	if r := k.Obs; r != nil {
		s.tr = r.TraceSink()
		s.gSndQ = r.Gauge("tcp.snd_q")
		s.gRcvQ = r.Gauge("tcp.rcv_q")
		s.gSndWnd = r.Gauge("tcp.snd_wnd")
		s.ctrRtoFires = r.Counter("tcp.rto_fires")
		s.ctrDupAcks = r.Counter("tcp.dupacks")
		s.ctrWindowStalls = r.Counter("tcp.window_stalls")
		s.ctrWCABConv = r.Counter("tcp.wcab_conversions")
		r.Func("tcp.segs_in", func() int64 { return int64(s.Stats.TCPSegsIn) })
		r.Func("tcp.segs_out", func() int64 { return int64(s.Stats.TCPSegsOut) })
		r.Func("tcp.retransmits", func() int64 { return int64(s.Stats.TCPRetransmits) })
		r.Func("tcp.fast_retransmits", func() int64 { return int64(s.Stats.TCPFastRetransmits) })
		r.Func("tcp.csum_errors", func() int64 { return int64(s.Stats.TCPCsumErrors) })
		r.Func("tcp.out_of_order", func() int64 { return int64(s.Stats.TCPOutOfOrder) })
		r.Func("tcp.dup_segs", func() int64 { return int64(s.Stats.TCPDupSegs) })
		r.Func("tcp.listen_overflow", func() int64 { return int64(s.Stats.TCPListenOverflow) })
		r.Func("tcp.ka_probes", func() int64 { return int64(s.Stats.TCPKaProbes) })
		r.Func("tcp.liveness_drops", func() int64 { return int64(s.Stats.TCPLivenessDrops) })
		r.Func("tcp.device_resets", func() int64 { return int64(s.Stats.TCPDeviceResets) })
		r.Func("ip.in", func() int64 { return int64(s.Stats.IPIn) })
		r.Func("ip.out", func() int64 { return int64(s.Stats.IPOut) })
		r.Func("ip.frags_in", func() int64 { return int64(s.Stats.IPFragsIn) })
		r.Func("ip.frags_out", func() int64 { return int64(s.Stats.IPFragsOut) })
		r.Func("ip.reassembled", func() int64 { return int64(s.Stats.IPReassembled) })
		r.Func("ip.drop_no_route", func() int64 { return int64(s.Stats.IPDropNoRoute) })
		r.Func("udp.in", func() int64 { return int64(s.Stats.UDPIn) })
		r.Func("udp.out", func() int64 { return int64(s.Stats.UDPOut) })
		r.Func("udp.csum_errors", func() int64 { return int64(s.Stats.UDPCsumErrors) })
		r.Func("udp.rcv_full", func() int64 { return int64(s.Stats.UDPRcvFull) })
		r.Func("udp.devreset_drops", func() int64 { return int64(s.Stats.UDPDevResetDrops) })
		r.Func("csum.hw_verified", func() int64 { return int64(s.Stats.HWCsumVerified) })
		r.Func("csum.sw_verified", func() int64 { return int64(s.Stats.SWCsumVerified) })
	}
	return s
}

// Splnet enters a protocol critical section (blocks until available).
func (s *Stack) Splnet(p *sim.Proc) { s.spl.Acquire(p, 0) }

// Splx leaves the critical section.
func (s *Stack) Splx() { s.spl.Release() }

// ErrPortExhausted is returned when every port in the ephemeral range is
// bound to a live connection, listener, or UDP socket.
var ErrPortExhausted = fmt.Errorf("tcpip: ephemeral port range exhausted")

// ErrPortInUse is returned for an explicit bind to an occupied port.
var ErrPortInUse = fmt.Errorf("tcpip: port already in use")

// SetEphemeralRange narrows the ephemeral port allocator to [lo, hi]
// (inclusive). A test and tooling knob: the default range is 10000-65535.
func (s *Stack) SetEphemeralRange(lo, hi uint16) {
	if lo == 0 || hi < lo {
		panic("tcpip: bad ephemeral range")
	}
	s.portLo, s.portHi = lo, hi
	s.nextPort = lo
}

// portInUse reports whether local port p is bound by any connection,
// listener, or UDP socket.
func (s *Stack) portInUse(p uint16) bool {
	if _, ok := s.listeners[p]; ok {
		return true
	}
	if _, ok := s.udps[p]; ok {
		return true
	}
	for k := range s.conns {
		if k.lport == p {
			return true
		}
	}
	return false
}

// ephemeralPort allocates a local port, scanning at most one full cycle of
// the ephemeral range so exhaustion surfaces as an error instead of an
// infinite loop (or a silent collision with a bound UDP port).
func (s *Stack) ephemeralPort() (uint16, error) {
	span := int(s.portHi) - int(s.portLo) + 1
	for i := 0; i < span; i++ {
		s.nextPort++
		if s.nextPort < s.portLo || s.nextPort > s.portHi {
			s.nextPort = s.portLo
		}
		if p := s.nextPort; !s.portInUse(p) {
			return p, nil
		}
	}
	return 0, ErrPortExhausted
}

// RouteCaps reports whether dst is reached through a single-copy capable
// interface, and that interface's MTU. The transport uses it to choose
// between outboard and software checksumming at output time — interface
// selection is a network-layer decision (Section 4.1).
func (s *Stack) RouteCaps(dst wire.Addr) (singleCopy bool, mtu units.Size) {
	r, err := s.Routes.Lookup(dst)
	if err != nil {
		return false, 1500
	}
	return r.If.Caps().SingleCopy, r.If.MTU()
}

// IPOutput routes and transmits a transport packet: it prepends the IP
// header (with header checksum) and hands the frame to the selected
// interface.
func (s *Stack) IPOutput(ctx kern.Ctx, m *mbuf.Mbuf, proto uint8, dst wire.Addr) {
	s.IPOutputECN(ctx, m, proto, dst, 0)
}

// IPOutputECN is IPOutput with an explicit ECN codepoint (ECN-capable TCP
// senders mark data segments ECT so fabric hops may CE them). Oversize
// packets lose the codepoint across fragmentation — ECN senders size
// segments to the route MTU, so the case never arises for them.
func (s *Stack) IPOutputECN(ctx kern.Ctx, m *mbuf.Mbuf, proto uint8, dst wire.Addr, ecn uint8) {
	ctx = ctx.In("ip_output")
	r, err := s.Routes.Lookup(dst)
	if err != nil {
		s.Stats.IPDropNoRoute++
		mbuf.FreeChain(m)
		return
	}
	if n := mbuf.ChainLen(m); n+wire.IPHdrLen > r.If.MTU() {
		// Oversize for the route: fragment. Each fragment is traced as it
		// is cut (with a fragment marker), inside fragmentOutput.
		ri := routeInfo{out: func(c kern.Ctx, pkt *mbuf.Mbuf) { r.If.Output(c, pkt, r.Link) }}
		s.fragmentOutput(ctx, m, proto, dst, ri, n, r.If.MTU())
		return
	}
	ctx.Charge(s.K.Mach.IPPerPacket, kern.CatProto)
	s.ipID++
	hdr := wire.IPHdr{
		TotLen: mbuf.ChainLen(m) + wire.IPHdrLen,
		ID:     s.ipID,
		TTL:    30,
		Proto:  proto,
		ECN:    ecn,
		Src:    s.Addr,
		Dst:    dst,
	}
	s.trace(TraceOut, hdr, m)
	hm := m.Prepend(wire.IPHdrLen)
	hdr.Marshal(hm.Bytes()[:wire.IPHdrLen])
	s.Stats.IPOut++
	r.If.Output(ctx, hm, r.Link)
}

// Input is the stack's receive entry point (registered with drivers). m's
// first mbuf starts with the IP header; drivers have stripped the link
// header.
func (s *Stack) Input(ctx kern.Ctx, m *mbuf.Mbuf, from netif.Interface) {
	ctx = ctx.In("ip_input")
	s.Splnet(ctx.P)
	defer s.Splx()
	first := m
	if first.Len() < wire.IPHdrLen {
		s.Stats.IPHdrErrors++
		mbuf.FreeChain(m)
		return
	}
	iph, err := wire.ParseIPHdr(first.Bytes())
	if err != nil || iph.TotLen < wire.IPHdrLen {
		// A total length shorter than the header leaves no packet to trim
		// the header off.
		s.Stats.IPHdrErrors++
		mbuf.FreeChain(m)
		return
	}
	ctx.Charge(s.K.Mach.IPPerPacket, kern.CatProto)
	s.Stats.IPIn++

	if iph.Dst != s.Addr {
		s.forward(ctx, m, iph)
		return
	}

	// Trim any link-layer padding and strip the IP header.
	if mbuf.ChainLen(m) > iph.TotLen {
		var pad *mbuf.Mbuf
		m, pad = mbuf.SplitAt(m, iph.TotLen)
		mbuf.FreeChain(pad)
	}
	first.TrimFront(wire.IPHdrLen)

	if iph.IsFragment() {
		// Trace the fragment itself before reassembly swallows it; the
		// whole datagram is traced again below once complete.
		s.trace(TraceIn, iph, m)
		m = s.reassemble(ctx, m, iph)
		if m == nil {
			return // incomplete (or discarded)
		}
		iph.MF, iph.FragOff = false, 0
		iph.TotLen = wire.IPHdrLen + mbuf.ChainLen(m)
	}
	s.trace(TraceIn, iph, m)

	sp := m.Span()
	switch iph.Proto {
	case wire.ProtoTCP:
		s.tcpInput(ctx, m, iph)
	case wire.ProtoUDP:
		s.udpInput(ctx, m, iph)
	default:
		mbuf.FreeChain(m)
	}
	// The packet's data-path span (attached by the driver) ends once
	// receive-side protocol processing has run.
	sp.End()
}

// forward routes a packet onward to another interface (the paper's
// argument for a single stack: routing between unlike interfaces relies on
// one network layer, Section 4.1). Descriptor chains are handed to the
// outgoing driver as-is; legacy drivers convert at their entry point.
func (s *Stack) forward(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr) {
	if iph.TTL <= 1 {
		mbuf.FreeChain(m)
		return
	}
	r, err := s.Routes.Lookup(iph.Dst)
	if err != nil {
		s.Stats.IPDropNoRoute++
		mbuf.FreeChain(m)
		return
	}
	// Rewrite TTL (and header checksum) in place.
	iph.TTL--
	iph.Marshal(m.Bytes()[:wire.IPHdrLen])
	s.Stats.IPForwarded++
	r.If.Output(ctx, m, r.Link)
}

// routeInfo carries the bound output function for fragmentation.
type routeInfo struct {
	out func(kern.Ctx, *mbuf.Mbuf)
}

// pseudoSum returns the transport pseudo-header partial sum.
func pseudoSum(src, dst wire.Addr, proto uint8, segLen units.Size) uint32 {
	return checksum.PseudoHeaderSum(uint32(src), uint32(dst), proto, uint32(segLen))
}

// verifyTransportCsum checks a received transport segment's checksum,
// using the hardware partial sum when the driver supplied one (the
// single-copy path: only the header is touched) and a software read of the
// whole segment otherwise.
func (s *Stack) verifyTransportCsum(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr, proto uint8) bool {
	segLen := mbuf.ChainLen(m)
	ps := pseudoSum(iph.Src, iph.Dst, proto, segLen)
	if h := m.Hdr(); h != nil && h.HWRxValid {
		s.Stats.HWCsumVerified++
		// The hardware summed the body in flight: the host touched only
		// the header — a plain cpu edge on the segment's causal chain.
		m.Span().CritEv(obs.CauseCPU, obs.EvTCPIn)
		return checksum.VerifySum(checksum.Add(ps, h.HWRxSum))
	}
	s.Stats.SWCsumVerified++
	if g := m.Span().Seg(); g.Len > 0 && ctx.K.Led != nil {
		// The segment starts at the transport header: payload byte 0 (stream
		// byte g.Off) sits at segment offset segLen-g.Len; the segment's
		// window clips the header bytes out of the record.
		ctx = ctx.OnStreamProv(m.Span(), g.Off-(segLen-g.Len))
	}
	sum := csumChain(ctx, m, segLen, segLen)
	// Software verification read every payload byte: the data-touching CPU
	// time the single-copy path eliminates.
	m.Span().CritEv(obs.CauseCPUCsum, obs.EvTCPIn)
	return checksum.VerifySum(checksum.Add(ps, sum))
}

// csumChain software-checksums the first n bytes of chain m where they lie,
// charging ctx for the read (region is the cache working set, as for
// cost.Machine.CsumTime).
func csumChain(ctx kern.Ctx, m *mbuf.Mbuf, n, region units.Size) uint32 {
	sum := mbuf.SumRange(m, 0, n)
	ctx.ChecksumCharge(n, region)
	return sum
}

// Conns returns the live connections in connection-key order (remote
// address, local port, remote port), so a sweep over them runs the same
// way every time.
func (s *Stack) Conns() []*TCPConn {
	out := make([]*TCPConn, 0, len(s.conns))
	for _, c := range s.conns {
		out = append(out, c)
	}
	slices.SortFunc(out, func(a, b *TCPConn) int {
		return cmp.Or(cmp.Compare(a.key.raddr, b.key.raddr),
			cmp.Compare(a.key.lport, b.key.lport), cmp.Compare(a.key.rport, b.key.rport))
	})
	return out
}

// udpSocks returns the bound UDP sockets in port order.
func (s *Stack) udpSocks() []*UDPSock {
	out := make([]*UDPSock, 0, len(s.udps))
	for _, u := range s.udps {
		out = append(out, u)
	}
	slices.SortFunc(out, func(a, b *UDPSock) int { return cmp.Compare(a.port, b.port) })
	return out
}

func (s *Stack) String() string {
	return fmt.Sprintf("stack(%v)", s.Addr)
}
