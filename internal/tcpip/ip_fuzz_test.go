package tcpip

import (
	"encoding/binary"
	"testing"

	"repro/internal/checksum"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// homeCounter is a cluster home that counts the buffers sent back.
type homeCounter struct{ released int }

func (h *homeCounter) Release([]byte) { h.released++ }

// FuzzIPInput feeds Stack.Input arbitrary frames, their IP header checksum
// fixed up so the decoder gets past it, on a rig whose mbuf pools and
// stack free lists are in check mode. Input must never panic, and once
// the simulation drains (reassembly timers included) every buffer of every
// frame must have gone home: a frame dropped, trimmed or answered leaks
// nothing. The seed corpus holds TCP frames whose total length (0, 10, 19)
// is shorter than the IP header.
func FuzzIPInput(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		if len(frame) > 4096 {
			frame = frame[:4096]
		}
		if len(frame) >= int(wire.IPHdrLen) {
			binary.BigEndian.PutUint16(frame[10:], 0)
			binary.BigEndian.PutUint16(frame[10:], checksum.Checksum(frame[:wire.IPHdrLen]))
		}
		r := newRig(t, 1)
		r.ka.Mbufs.Check()
		r.kb.Mbufs.Check()
		r.sa.CheckPools()
		r.sb.CheckPools()
		// Deliver the frame as adopted clusters of 48 bytes, so the trims
		// cross mbuf boundaries and every piece has to come home.
		var home homeCounter
		var chain *mbuf.Mbuf
		pieces := 0
		for off := 0; off < len(frame); off += 48 {
			n := min(48, len(frame)-off)
			buf := append([]byte(nil), frame[off:off+n]...)
			chain = mbuf.Cat(chain, r.kb.Mbufs.AdoptCluster(buf, 0, units.Size(n), &home))
			pieces++
		}
		if chain == nil {
			return
		}
		chain.MarkPktHdr(units.Size(len(frame)))
		r.eng.Go("rx", func(p *sim.Proc) {
			r.sb.Input(r.kb.IntrCtx(p), chain, r.ib)
		})
		r.eng.Run()
		r.eng.KillAll()
		if home.released != pieces {
			t.Fatalf("%d of %d frame buffers came home", home.released, pieces)
		}
	})
}
