package tcpip

import (
	"encoding/binary"
	"errors"

	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs"
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

// ErrMsgSize refuses a datagram longer than IPv4 can carry (EMSGSIZE).
var ErrMsgSize = errors.New("tcpip: datagram too long")

// CheckLen refuses, with ErrMsgSize, an n-byte payload that cannot be one
// datagram: IPv4's 16-bit total length (and 13-bit fragment offset) cannot
// represent it. SendTo refuses such a payload; a socket layer asks first,
// so it neither copies nor maps, pins or tracks what would be refused.
func (u *UDPSock) CheckLen(n units.Size) error {
	if wire.IPHdrLen+wire.UDPHdrLen+n > maxDatagram {
		u.stk.Stats.UDPOversize++
		return ErrMsgSize
	}
	return nil
}

// SendTo transmits an n-byte chain as one datagram to dst:dport. The chain
// may hold M_UIO descriptors on the single-copy path; the driver frees the
// outboard packet after the media send, since UDP keeps no retransmit state
// and so sets no OnOutboard. A refused datagram's chain is freed.
func (u *UDPSock) SendTo(ctx kern.Ctx, m *mbuf.Mbuf, n units.Size, dst wire.Addr, dport uint16) error {
	ctx = ctx.In(obs.LayerUDPOutput).WithFlow(int(u.port))
	if err := u.CheckLen(n); err != nil {
		mbuf.FreeChain(m)
		return err
	}
	singleCopy, mtu := u.stk.RouteCaps(dst)
	segTotal := wire.UDPHdrLen + n
	hdr := wire.UDPHdr{SPort: u.port, DPort: dport, Len: segTotal}
	ps := pseudoSum(u.stk.Addr, dst, wire.ProtoUDP, segTotal)
	hb := make([]byte, wire.UDPHdrLen)
	hdr.Marshal(hb)
	var phdr *mbuf.Hdr

	// Datagrams that fragment cannot use the per-packet transmit checksum
	// engine (the field must cover the whole datagram): software checksum.
	if singleCopy && n > 0 && segTotal+wire.IPHdrLen <= mtu {
		h := outboardCsum(hb, ps, wire.UDPCsumOff)
		phdr = &h
	} else {
		var body uint32
		if n > 0 {
			body = csumChain(ctx, obs.Seg{}, m, n, n)
		}
		binary.BigEndian.PutUint16(hb[wire.UDPCsumOff:], checksum.UDPWire(softCsum(hb, ps, body)))
	}

	hm := u.stk.K.Mbufs.NewData(hb)
	hm.SetNext(m)
	hm.MarkPktHdr(segTotal)
	if n > 0 {
		hm.SetFlow(int(u.port))
	}
	hm.SetHdr(phdr)
	ctx.Charge(u.stk.K.Mach.TCPPerPacket/2, kern.CatProto) // UDP is cheaper than TCP
	u.stk.Stats.UDPOut++
	u.stk.IPOutput(ctx, hm, wire.ProtoUDP, dst)
	return nil
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

// CountDevResetDrop records a datagram discarded because its outboard
// payload was wiped by an adaptor reset after dequeue (the socket layer
// detects this during copy-out, where the stack's DeviceReset sweep can no
// longer see the chain).
func (u *UDPSock) CountDevResetDrop() { u.stk.Stats.UDPDevResetDrops++ }

// udpInput demultiplexes a received UDP datagram.
func (s *Stack) udpInput(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr) {
	if m.Len() < wire.UDPHdrLen {
		mbuf.FreeChain(m)
		return
	}
	hdr, err := wire.ParseUDPHdr(m.Bytes())
	if err != nil {
		mbuf.FreeChain(m)
		return
	}
	ctx = ctx.In(obs.LayerUDPInput).WithFlow(int(hdr.DPort))
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
