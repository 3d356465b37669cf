package tcpip

import (
	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// IP fragmentation and reassembly. The paper's HIPPI MTU (32 KB) makes
// fragmentation unnecessary for its experiments, but the stack it modifies
// is IP, and the descriptor machinery extends to fragments naturally:
//
//   - Fragmentation is symbolic — CopyRange splits M_UIO/M_WCAB chains
//     without touching data, so an oversize single-copy UDP datagram is
//     still DMAed straight from user pages, one fragment at a time.
//   - On receive, each fragment arriving through the CAB carries the
//     hardware checksum engine's partial sum over its own payload (the
//     engine's fixed skip offset lands on the fragment payload). The
//     reassembler combines the per-fragment sums with the ones-complement
//     concatenation rule, so even a reassembled datagram is verified
//     without the host reading the data.
//
// Transport checksum offload is not used for fragmented transmissions
// (the engine inserts a checksum per packet, but the field must cover the
// whole datagram), matching real stacks: oversize datagrams take the
// software checksum at the sender.

// reassTimeout evicts incomplete datagrams.
const reassTimeout = 30 * units.Second

// maxReassQueues bounds concurrent reassembly state.
const maxReassQueues = 64

// fragKey identifies a datagram being reassembled.
type fragKey struct {
	src, dst wire.Addr
	proto    uint8
	id       uint16
}

// fragPart is one held fragment.
type fragPart struct {
	off, ln units.Size
	chain   *mbuf.Mbuf
	// hwSum is the fragment's hardware payload sum, if the driver
	// supplied one.
	hwSum   uint32
	hwValid bool
}

// fragQueue accumulates one datagram.
type fragQueue struct {
	parts []fragPart
	total units.Size // set when the final fragment arrives; 0 = unknown
	end   units.Size // the furthest byte a held fragment reaches
	gen   int
}

// fragmentOutput splits an oversize network-layer payload into fragments
// and transmits each through the interface. m is the transport packet
// (header + payload) of length n; mtu is the interface's network-layer
// MTU.
func (s *Stack) fragmentOutput(ctx kern.Ctx, m *mbuf.Mbuf, proto uint8, dst wire.Addr,
	r routeInfo, n, mtu units.Size) {
	maxPayload := (mtu - wire.IPHdrLen) &^ 7
	s.ipID++
	id := s.ipID
	for off := units.Size(0); off < n; off += maxPayload {
		ln := n - off
		mf := true
		if ln <= maxPayload {
			mf = false
		} else {
			ln = maxPayload
		}
		piece := mbuf.CopyRange(m, off, ln)
		hdr := wire.IPHdr{
			TotLen:  wire.IPHdrLen + ln,
			ID:      id,
			MF:      mf,
			FragOff: off,
			TTL:     30,
			Proto:   proto,
			Src:     s.Addr,
			Dst:     dst,
		}
		s.trace(TraceOut, hdr, piece)
		hm := piece.Prepend(wire.IPHdrLen)
		hdr.Marshal(hm.Bytes()[:wire.IPHdrLen])
		if !hm.IsPktHdr() {
			hm.MarkPktHdr(wire.IPHdrLen + ln)
		}
		ctx.Charge(s.K.Mach.IPPerPacket, kern.CatProto)
		s.Stats.IPOut++
		s.Stats.IPFragsOut++
		r.out(ctx, hm)
	}
	mbuf.FreeChain(m)
}

// reassemble folds a received fragment in; it returns the completed
// payload chain (transport header first) when the datagram is whole.
// The caller has already stripped the IP header from m.
func (s *Stack) reassemble(ctx kern.Ctx, m *mbuf.Mbuf, iph wire.IPHdr) *mbuf.Mbuf {
	s.Stats.IPFragsIn++
	key := fragKey{src: iph.Src, dst: iph.Dst, proto: iph.Proto, id: iph.ID}
	q := s.frags[key]
	if q == nil {
		if len(s.frags) >= maxReassQueues {
			// Refuse new reassembly state under pressure.
			mbuf.FreeChain(m)
			return nil
		}
		q = &fragQueue{}
		s.frags[key] = q
		s.armFragTimeout(key, q)
	}

	ln := mbuf.ChainLen(m)
	part := fragPart{off: iph.FragOff, ln: ln, chain: m}
	if h := m.Hdr(); h != nil && h.HWRxValid {
		part.hwSum, part.hwValid = h.HWRxSum, true
	}
	// Reject overlaps outright (simple and safe); duplicates are freed.
	for _, p := range q.parts {
		if part.off < p.off+p.ln && p.off < part.off+part.ln {
			mbuf.FreeChain(m)
			return nil
		}
	}
	// So is a fragment that contradicts the datagram's end: one past the
	// final fragment's end, or a final fragment short of bytes already
	// held or ending elsewhere than an earlier final one. Every held byte
	// then lies below the total, and the held lengths adding up to it
	// means no hole is left.
	end := part.off + part.ln
	if q.total != 0 && end > q.total || !iph.MF && (q.total != 0 && end != q.total || end < q.end) {
		mbuf.FreeChain(m)
		return nil
	}
	q.end = max(q.end, end)
	q.parts = append(q.parts, part)
	if !iph.MF {
		q.total = end
	}

	if q.total == 0 {
		return nil
	}
	var have units.Size
	for _, p := range q.parts {
		have += p.ln
	}
	if have < q.total {
		return nil
	}

	// Complete: stitch in offset order, combining hardware sums.
	ordered := make([]*fragPart, len(q.parts))
	for i := range q.parts {
		ordered[i] = &q.parts[i]
	}
	for i := range ordered { // insertion sort; fragment counts are small
		for j := i; j > 0 && ordered[j].off < ordered[j-1].off; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	var chain *mbuf.Mbuf
	hwSum := uint32(0)
	hwValid := true
	pos := 0
	for _, p := range ordered {
		chain = mbuf.Cat(chain, p.chain)
		if p.hwValid {
			hwSum = checksum.Combine(hwSum, p.hwSum, pos)
		} else {
			hwValid = false
		}
		pos += int(p.ln)
	}
	delete(s.frags, key)
	q.gen++ // cancel the timeout

	head := chain
	if hwValid {
		// The whole datagram is verified from per-fragment hardware sums:
		// the host never reads the payload (the paper's checksum
		// machinery, extended across fragmentation).
		h := head.Hdr()
		if h == nil {
			h = &mbuf.Hdr{}
			head.SetHdr(h)
		}
		h.HWRxValid, h.HWRxSum = true, hwSum
	} else if h := head.Hdr(); h != nil {
		h.HWRxValid = false
	}
	head.MarkPktHdr(q.total)
	s.Stats.IPReassembled++
	return head
}

// armFragTimeout schedules eviction of an incomplete datagram.
func (s *Stack) armFragTimeout(key fragKey, q *fragQueue) {
	gen := q.gen
	s.K.Eng.AfterKind(reassTimeout, sim.KindTimer, func() {
		s.K.PostIntr("ip-reass-timeout", func(p *sim.Proc) {
			s.Splnet(p)
			defer s.Splx()
			cur := s.frags[key]
			if cur != q || q.gen != gen {
				return
			}
			for _, part := range q.parts {
				mbuf.FreeChain(part.chain)
			}
			delete(s.frags, key)
			s.Stats.IPReassTimeouts++
		})
	})
}
