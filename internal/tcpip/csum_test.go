package tcpip

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cab"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/hippi"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestOutboardChecksumMatchesSoftware is the differential check between
// the two ways a transport checksum is made: the seed outboardCsum hands
// to a real CAB, completed by its transmit engine during the SDMA, and
// softCsum's finished software checksum. For UDP the two fields must be
// byte-equal (the wire form, checksum.UDPWire, included); for TCP they
// must be equal as ones-complement values, and both must verify. The
// payloads cover even and odd lengths and, for each, one built so that
// the segment sums to 0xFFFF: the finished checksum is then zero, which a
// UDP field may not carry (0 means "no checksum", and the receiver skips
// verification).
func TestOutboardChecksumMatchesSoftware(t *testing.T) {
	eng := sim.NewEngine(1)
	defer eng.KillAll()
	adaptor := cab.New(eng, cost.Alpha400(), hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond), 1, cab.DefaultConfig())
	src, dst := wire.Addr(0x0a000001), wire.Addr(0x0a000002)
	r := rand.New(rand.NewSource(46))

	protos := []struct {
		name    string
		proto   uint8
		hdrLen  units.Size
		off     units.Size
		udp     bool
		marshal func(hb []byte, segTotal units.Size)
	}{
		{"tcp", wire.ProtoTCP, wire.TCPHdrLen, wire.TCPCsumOff, false, func(hb []byte, _ units.Size) {
			wire.TCPHdr{SPort: 5001, DPort: 6001, Seq: 7, Ack: 9, Flags: wire.FlagACK, Wnd: 4096}.Marshal(hb)
		}},
		{"udp", wire.ProtoUDP, wire.UDPHdrLen, wire.UDPCsumOff, true, func(hb []byte, segTotal units.Size) {
			wire.UDPHdr{SPort: 5001, DPort: 6001, Len: segTotal}.Marshal(hb)
		}},
	}
	for _, p := range protos {
		for _, n := range []int{1000, 1001} {
			for _, zero := range []bool{false, true} {
				name := fmt.Sprintf("%s/%dB/zero=%v", p.name, n, zero)
				segTotal := p.hdrLen + units.Size(n)
				ps := pseudoSum(src, dst, p.proto, segTotal)
				hb := make([]byte, p.hdrLen)
				p.marshal(hb, segTotal)
				body := make([]byte, n)
				r.Read(body)
				if zero {
					// Choose the payload's first word so that the
					// pseudo-header, header and payload sum to 0xFFFF.
					body[0], body[1] = 0, 0
					rest := checksum.Fold(checksum.Combine(checksum.Add(ps, checksum.Sum(hb)), checksum.Sum(body), len(hb)))
					binary.BigEndian.PutUint16(body, 0xffff-rest)
				}

				soft := softCsum(hb, ps, checksum.Sum(body))
				if zero && soft != 0 {
					t.Fatalf("%s: payload built for a zero checksum gave %#04x", name, soft)
				}
				if p.udp {
					soft = checksum.UDPWire(soft)
				}

				ob := append([]byte(nil), hb...)
				h := outboardCsum(ob, ps, p.off)
				if h.CsumOff != p.off || h.CsumSkip != p.hdrLen {
					t.Fatalf("%s: geometry off=%v skip=%v, want %v, %v", name, h.CsumOff, h.CsumSkip, p.off, p.hdrLen)
				}
				pk, ok := adaptor.AllocPacket(segTotal)
				if !ok {
					t.Fatalf("%s: no network memory", name)
				}
				adaptor.SDMA(&cab.SDMAReq{Dir: cab.ToCAB, Pkt: pk, Gather: [][]byte{ob, body},
					CsumOff: h.CsumOff, CsumSkip: h.CsumSkip})
				eng.Run()
				seg := append([]byte(nil), pk.Bytes()...)
				pk.Free()
				hw := binary.BigEndian.Uint16(seg[p.off:])

				switch {
				case p.udp && hw != soft:
					t.Errorf("%s: CAB field %#04x, software field %#04x", name, hw, soft)
				case !p.udp && onesZero(hw) != onesZero(soft):
					t.Errorf("%s: CAB field %#04x is not software field %#04x as a ones-complement value", name, hw, soft)
				case !checksum.VerifySum(checksum.Add(ps, checksum.Sum(seg))):
					t.Errorf("%s: CAB-completed segment does not verify", name)
				}
			}
		}
	}
}

// onesZero maps the two ones-complement representations of zero, 0x0000
// and 0xFFFF, to one, leaving every other value as it is.
func onesZero(x uint16) uint16 {
	if x == 0xffff {
		return 0
	}
	return x
}
