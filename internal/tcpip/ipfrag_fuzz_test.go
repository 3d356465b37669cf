package tcpip

import (
	"bytes"
	"testing"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// FuzzIPReassembly feeds one UDP datagram's fragments to a stack whose
// mbuf pools and free lists are in check mode. The input's first two bytes
// size the datagram; each next four bytes are one fragment: an offset (a
// multiple of 8, possibly past the end), a length, and whether the MF flag
// tells the truth, so the fuzzer reaches overlaps, duplicates, out-of-order
// arrival, fragments running past the datagram and a missing tail. Every
// fragment carries the model's bytes for its range: the datagram, then a
// pattern beyond its end. Reassembly must never panic, every fragment
// buffer must have gone home once the simulation drains (the 30 s
// reassembly timeout included), and when every fragment is a truthful
// piece of the datagram, anything delivered must be the datagram.
func FuzzIPReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		size := int(wire.UDPHdrLen) + (int(in[0])<<8|int(in[1]))%2048
		model := make([]byte, size+2048+64)
		uh := wire.UDPHdr{SPort: 7, DPort: 9000, Len: units.Size(size)}
		uh.Marshal(model) // checksum 0: unchecked, so a delivery shows the bytes
		for i := int(wire.UDPHdrLen); i < len(model); i++ {
			model[i] = byte(i*7 + 3)
		}

		r := newRig(t, 1)
		r.ka.Mbufs.Check()
		r.kb.Mbufs.Check()
		r.sa.CheckPools()
		r.sb.CheckPools()
		rx, _ := r.sb.UDPBind(9000)
		var got [][]byte
		r.eng.Go("rx", func(p *sim.Proc) {
			for {
				d := rx.RecvFrom(p)
				got = append(got, mbuf.Materialize(d.Chain))
				mbuf.FreeChain(d.Chain)
			}
		})

		var home homeCounter
		frames, pieces, truthful := 0, 0, true
		base := wire.IPHdr{ID: 42, TTL: 9, Proto: wire.ProtoUDP, Src: r.sa.Addr, Dst: r.sb.Addr}
		r.eng.Go("inject", func(p *sim.Proc) {
			for g := in[2:]; len(g) >= 4 && frames < 16; g = g[4:] {
				off := (int(g[0])<<8 | int(g[1])) % (size + 64) &^ 7
				end := off + 8*(int(g[2])+1)
				if g[3]&1 != 0 {
					end = min(end, size) // a fragment that stops at the end
				}
				if end <= off {
					continue
				}
				h := base
				h.FragOff = units.Size(off)
				h.MF = end < size
				if g[3]&2 != 0 {
					h.MF = g[3]&4 != 0 // the flag lies, or happens to agree
				}
				truthful = truthful && end <= size && h.MF == (end < size)
				h.TotLen = wire.IPHdrLen + units.Size(end-off)
				frame := make([]byte, int(h.TotLen))
				h.Marshal(frame)
				copy(frame[wire.IPHdrLen:], model[off:end])
				// Adopted clusters of 48 bytes, so the held fragments
				// are chains whose every piece has to come home.
				var chain *mbuf.Mbuf
				for o := 0; o < len(frame); o += 48 {
					buf := append([]byte(nil), frame[o:min(o+48, len(frame))]...)
					chain = mbuf.Cat(chain, r.kb.Mbufs.AdoptCluster(buf, 0, units.Size(len(buf)), &home))
					pieces++
				}
				chain.MarkPktHdr(units.Size(len(frame)))
				frames++
				r.sb.Input(r.kb.IntrCtx(p), chain, r.ib)
			}
		})
		r.eng.Run()
		r.eng.KillAll()
		if home.released != pieces {
			t.Fatalf("%d of %d fragment buffers came home", home.released, pieces)
		}
		if len(r.sb.frags) != 0 {
			t.Fatalf("%d reassembly queues outlived the timeout", len(r.sb.frags))
		}
		// Every fragment carries the model's bytes at its offset, so even
		// a lying set can only deliver a prefix of the model; a truthful
		// one delivers the datagram.
		for _, d := range got {
			want := model[wire.UDPHdrLen : int(wire.UDPHdrLen)+len(d)]
			if truthful {
				want = model[wire.UDPHdrLen:size]
			}
			if !bytes.Equal(d, want) {
				t.Fatalf("delivered %d bytes that are not the model's first %d", len(d), len(want))
			}
		}
	})
}
