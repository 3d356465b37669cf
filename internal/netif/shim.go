package netif

import (
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/units"
	"repro/internal/wire"
)

// ConvertForLegacy is the "thin layer of code at the entry point to the
// driver" (Section 5): it materializes a packet chain containing M_UIO or
// M_WCAB descriptor mbufs into regular kernel buffers with a
// memory-to-memory copy, so drivers for existing devices never see the new
// mbuf types. The copy is charged to the calling context; as the paper
// notes, this does not increase the copy count over a traditional stack —
// the copy has merely been delayed.
//
// Copy-semantics bookkeeping: if the packet carries an OnConverted
// callback the transport takes responsibility for the displaced
// descriptors (replacing its socket-buffer range and notifying owners);
// otherwise the owners of converted M_UIO mbufs are notified here, since
// after this call their user memory is no longer referenced.
func ConvertForLegacy(ctx kern.Ctx, m *mbuf.Mbuf) *mbuf.Mbuf {
	if !mbuf.HasDescriptors(m) {
		return m
	}
	total := mbuf.ChainLen(m)
	buf := make([]byte, total)
	mbuf.ReadRange(m, 0, total, buf)
	ctx.Charge(ctx.K.Mach.CopyTime(total, total), kern.CatCopy)
	// The chain is a network-layer packet: its byte 0 sits at the link
	// header's end in wire coordinates.
	sp := m.Span()
	ctx.K.Led.TouchP(sp, wire.LinkHdrLen, total, ledger.CPUCopy, obs.LayerShim, 0)

	// Rebuild as cluster mbufs.
	var head, tail *mbuf.Mbuf
	for off := units.Size(0); off < total; off += mbuf.MCLBYTES {
		n := total - off
		if n > mbuf.MCLBYTES {
			n = mbuf.MCLBYTES
		}
		c := ctx.K.Mbufs.NewCluster(buf[off : off+n])
		if head == nil {
			head = c
		} else {
			tail.SetNext(c)
		}
		tail = c
	}
	if m.IsPktHdr() {
		head.MarkPktHdr(m.PktLen())
	}
	// The rebuilt packet keeps its span for the ledger but leaves the CAB
	// data path, whose stages its trace and causal events describe.
	sp.DropTrace()
	head.AttachSpan(sp)

	if h := m.Hdr(); h != nil && h.OnConverted != nil {
		h.OnConverted(head)
	} else {
		mbuf.CreditOwners(m)
	}
	mbuf.FreeChain(m)
	return head
}
