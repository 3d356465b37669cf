package tcpip

import (
	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// UDPDatagram is one received datagram queued on a UDP socket.
type UDPDatagram struct {
	Src   wire.Addr
	SPort uint16
	Chain *mbuf.Mbuf // payload (headers stripped); may contain M_WCAB
	Len   units.Size
}

// UDPSock is a bound UDP endpoint.
type UDPSock struct {
	stk      *Stack
	port     uint16
	rcvQ     []*UDPDatagram
	rcvLen   units.Size
	RcvLimit units.Size
	rcvSig   *sim.Signal
	closed   bool
}

// UDPBind binds a UDP socket to port (0 selects an ephemeral port). It
// fails with ErrPortInUse for an occupied explicit port (the seed silently
// shadowed the earlier socket) and ErrPortExhausted when no ephemeral port
// is free.
func (s *Stack) UDPBind(port uint16) (*UDPSock, error) {
	if port == 0 {
		p, err := s.ephemeralPort()
		if err != nil {
			return nil, err
		}
		port = p
	} else if s.portInUse(port) {
		return nil, ErrPortInUse
	}
	u := &UDPSock{
		stk:      s,
		port:     port,
		RcvLimit: DefaultWindow,
		rcvSig:   sim.NewSignal(s.K.Eng),
	}
	s.udps[port] = u
	return u, nil
}

// TxAdmitter returns the per-flow netmem admitter for the device routing
// to dst (nil when the device has no arbitration).
func (u *UDPSock) TxAdmitter(dst wire.Addr) netif.Admitter {
	r, err := u.stk.Routes.Lookup(dst)
	if err != nil {
		return nil
	}
	if a, ok := r.If.(netif.Admitter); ok {
		return a
	}
	return nil
}

// Port returns the bound port.
func (u *UDPSock) Port() uint16 { return u.port }

// Close unbinds the socket.
func (u *UDPSock) Close() {
	u.closed = true
	delete(u.stk.udps, u.port)
	for _, d := range u.rcvQ {
		mbuf.FreeChain(d.Chain)
	}
	u.rcvQ = nil
	u.rcvSig.Broadcast()
}

// SendTo transmits an n-byte chain as one datagram to dst:dport. The chain
// may hold M_UIO descriptors on the single-copy path; the driver frees the
// outboard packet after the media send (UDP keeps no retransmit state), as
// directed by FreeAfterSend.
func (u *UDPSock) SendTo(ctx kern.Ctx, m *mbuf.Mbuf, n units.Size, dst wire.Addr, dport uint16) {
	ctx = ctx.In("udp_output").WithFlow(int(u.port))
	if wire.IPHdrLen+wire.UDPHdrLen+n > maxDatagram {
		// IPv4's 16-bit total length (and 13-bit fragment offset) cannot
		// represent it: EMSGSIZE in a real stack.
		u.stk.Stats.UDPOversize++
		mbuf.FreeChain(m)
		return
	}
	singleCopy, mtu := u.stk.RouteCaps(dst)
	segTotal := wire.UDPHdrLen + n
	hdr := wire.UDPHdr{SPort: u.port, DPort: dport, Len: segTotal}
	ps := pseudoSum(u.stk.Addr, dst, wire.ProtoUDP, segTotal)
	hb := make([]byte, wire.UDPHdrLen)
	var phdr *mbuf.Hdr

	// Datagrams that fragment cannot use the per-packet transmit checksum
	// engine (the field must cover the whole datagram): software checksum.
	if singleCopy && n > 0 && segTotal+wire.IPHdrLen <= mtu {
		hdr.Csum = 0
		hdr.Marshal(hb)
		seed := checksum.Fold(checksum.Add(ps, checksum.Sum(hb)))
		hdr.Csum = seed
		hdr.Marshal(hb)
		phdr = &mbuf.Hdr{
			NeedCsum:      true,
			CsumOff:       wire.UDPCsumOff,
			CsumSkip:      wire.UDPHdrLen,
			CsumSeed:      uint32(seed),
			FreeAfterSend: true,
		}
	} else {
		hdr.Csum = 0
		hdr.Marshal(hb)
		sum := checksum.Add(ps, checksum.Sum(hb))
		if n > 0 {
			sum = checksum.Combine(sum, csumChain(ctx, m, n, n), int(wire.UDPHdrLen))
		}
		hdr.Csum = checksum.UDPWire(checksum.Finish(sum))
		hdr.Marshal(hb)
	}

	if phdr == nil && n > 0 {
		// Carry the flow tag on the software path too (per-flow netmem
		// accounting in the driver).
		phdr = &mbuf.Hdr{}
	}
	hm := mbuf.NewData(hb)
	hm.SetNext(m)
	hm.MarkPktHdr(segTotal)
	if phdr != nil {
		phdr.Flow = int(u.port)
		hm.SetHdr(phdr)
	}
	ctx.Charge(u.stk.K.Mach.TCPPerPacket/2, kern.CatProto) // UDP is cheaper than TCP
	u.stk.Stats.UDPOut++
	u.stk.IPOutput(ctx, hm, wire.ProtoUDP, dst)
}

// RecvFrom blocks until a datagram arrives (nil once the socket closes).
func (u *UDPSock) RecvFrom(p *sim.Proc) *UDPDatagram {
	for len(u.rcvQ) == 0 && !u.closed {
		u.rcvSig.Wait(p)
	}
	if len(u.rcvQ) == 0 {
		return nil
	}
	d := u.rcvQ[0]
	u.rcvQ = u.rcvQ[1:]
	u.rcvLen -= d.Len
	return d
}

// Buffered returns the queued byte count.
func (u *UDPSock) Buffered() units.Size { return u.rcvLen }

// CountDevResetDrop records a datagram discarded because its outboard
// payload was wiped by an adaptor reset after dequeue (the socket layer
// detects this during copy-out, where the stack's DeviceReset sweep can no
// longer see the chain).
func (u *UDPSock) CountDevResetDrop() { u.stk.Stats.UDPDevResetDrops++ }

// udpInput demultiplexes a received UDP datagram.
func (s *Stack) udpInput(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr) {
	if m.Len() < wire.UDPHdrLen {
		s.Stats.IPHdrErrors++
		mbuf.FreeChain(m)
		return
	}
	hdr, err := wire.ParseUDPHdr(m.Bytes())
	if err != nil {
		s.Stats.IPHdrErrors++
		mbuf.FreeChain(m)
		return
	}
	ctx = ctx.In("udp_input").WithFlow(int(hdr.DPort))
	if hdr.Csum != 0 && !s.verifyTransportCsum(ctx, m, iph, wire.ProtoUDP) {
		s.Stats.UDPCsumErrors++
		mbuf.FreeChain(m)
		return
	}
	ctx.Charge(s.K.Mach.TCPPerPacket/2, kern.CatProto)
	s.Stats.UDPIn++
	u, ok := s.udps[hdr.DPort]
	if !ok {
		s.Stats.UDPDropNoPort++
		mbuf.FreeChain(m)
		return
	}
	n := mbuf.ChainLen(m) - wire.UDPHdrLen
	if u.rcvLen+n > u.RcvLimit {
		s.Stats.UDPRcvFull++ // socket buffer overflow: UDP drops
		mbuf.FreeChain(m)
		return
	}
	m.TrimFront(wire.UDPHdrLen)
	u.rcvQ = append(u.rcvQ, &UDPDatagram{Src: iph.Src, SPort: hdr.SPort, Chain: m, Len: n})
	u.rcvLen += n
	u.rcvSig.Signal()
}

// maxDatagram is IPv4's 16-bit total-length ceiling.
const maxDatagram = 65535 * units.Byte
