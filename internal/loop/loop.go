// Package loop is the loopback interface: packets to the host's own
// address re-enter the stack through the normal input path. Like any
// legacy interface it takes no descriptor mbufs, so the driver-entry shim
// materializes them first.
package loop

import (
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// MTU is the loopback MTU.
const MTU = 16 * units.KB

// Loopback is one loopback instance.
type Loopback struct {
	K     *kern.Kernel
	Input netif.InputFunc

	TxPackets int
}

// New returns a loopback interface.
func New(k *kern.Kernel) *Loopback { return &Loopback{K: k} }

// Name implements netif.Interface.
func (l *Loopback) Name() string { return "lo0" }

// MTU implements netif.Interface.
func (l *Loopback) MTU() units.Size { return MTU }

// Caps implements netif.Interface.
func (l *Loopback) Caps() netif.Caps { return netif.Caps{} }

// Output implements netif.Interface: the packet re-enters the stack in
// interrupt context, as if it had just arrived.
func (l *Loopback) Output(ctx kern.Ctx, m *mbuf.Mbuf, dst netif.LinkAddr) {
	if mbuf.HasDescriptors(m) {
		m = netif.ConvertForLegacy(ctx, m)
	}
	l.TxPackets++
	l.K.Led.TouchP(m.Span(), wire.LinkHdrLen, mbuf.ChainLen(m), ledger.WireTransit, ledger.LayerLoop, 0)
	l.K.PostIntr("lo-rx", func(p *sim.Proc) {
		l.Input(l.K.IntrCtx(p).In("loop"), m, l)
	})
}
