package tcpip

import (
	"testing"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// fakePkt is an outboard packet on a fake adaptor; dead says whether that
// adaptor has since reset.
type fakePkt struct {
	mbuf.WCAB
	dead *bool
}

func (p *fakePkt) Read(off, n units.Size) []byte { return make([]byte, n) }
func (p *fakePkt) Dead() bool                    { return *p.dead }
func (p *fakePkt) Free()                         {}
func (p *fakePkt) CopyOut(off, n units.Size, dst [][]byte, to mbuf.CopyNotifier) {
	panic("fakePkt: copy-out")
}

// wcabDatagram builds a queued datagram whose payload is one outboard
// (M_WCAB) mbuf; dead controls whether the fake adaptor has since reset.
func wcabDatagram(n units.Size, dead *bool) *UDPDatagram {
	p := &fakePkt{dead: dead}
	p.Handle, p.Valid = p, n
	return &UDPDatagram{Src: wire.Addr(2), SPort: 9, Chain: mbuf.NewWCAB(&p.WCAB, 0, n, nil), Len: n}
}

// TestDeviceResetSweepsDeadUDPDatagrams pins the data-integrity contract
// for UDP under adaptor reset: datagrams whose only payload copy was wiped
// outboard must be discarded as a counted loss — never delivered as zeros
// — while host-resident and still-live outboard datagrams stay queued.
func TestDeviceResetSweepsDeadUDPDatagrams(t *testing.T) {
	r := newRig(t, 61)
	u, err := r.sa.UDPBind(7000)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	deadA, deadB := false, false
	dgDead := wcabDatagram(512, &deadA)
	dgLive := wcabDatagram(256, &deadB)
	dgHost := &UDPDatagram{Src: wire.Addr(2), SPort: 9,
		Chain: mbuf.NewData(make([]byte, 128)), Len: 128}
	u.rcvQ = append(u.rcvQ, dgDead, dgLive, dgHost)
	u.rcvLen = 512 + 256 + 128

	r.eng.Go("reset", func(p *sim.Proc) {
		deadA = true // the adaptor behind dgDead's pages resets
		r.sa.DeviceReset(r.ka.TaskCtx(p, r.ka.KernelTask), nil)
	})
	r.eng.Run()

	if got := r.sa.Stats.UDPDevResetDrops; got != 1 {
		t.Fatalf("UDPDevResetDrops = %d, want 1", got)
	}
	if len(u.rcvQ) != 2 || u.rcvQ[0] != dgLive || u.rcvQ[1] != dgHost {
		t.Fatalf("rcvQ after sweep has %d entries, want live+host survivors", len(u.rcvQ))
	}
	if u.rcvLen != 256+128 {
		t.Fatalf("rcvLen = %v after sweep, want %v", u.rcvLen, 256+128)
	}
}
