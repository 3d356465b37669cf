package mbuf

import (
	"bytes"
	"testing"

	"repro/internal/checksum"
	"repro/internal/mem"
	"repro/internal/pool"
	"repro/internal/units"
)

// FuzzChainOps runs random sequences of the chain operations — every
// constructor (regular, cluster, adopted, M_UIO and M_WCAB mbufs), Cat,
// CopyRange, SplitAt, AdjFront, TrimFront, TrimBack, Prepend, Free and
// FreeChain — over a few chains at once, and checks each step against a
// flat []byte model of every chain: Materialize must equal the model,
// ChainLen its length, and SumRange over a sub-range must fold to
// checksum.Sum of the model's bytes there. The mbufs come from a pool in
// check mode, so an operation that reaches a released header or cluster
// fails at the access. At the end every chain is freed, and every outboard
// packet must have been freed exactly once and every adopted buffer sent
// home exactly once.
func FuzzChainOps(f *testing.F) {
	f.Add([]byte{0, 40, 1, 200, 6, 0, 1, 7, 0, 10, 20, 2, 13, 0})
	f.Add([]byte{4, 100, 3, 5, 80, 2, 8, 0, 33, 9, 1, 5, 12, 0, 20, 14, 1})
	f.Add([]byte{3, 60, 10, 0, 5, 11, 0, 3, 12, 0, 64, 7, 0, 0, 255, 6, 1, 0, 13, 1})
	f.Add([]byte{2, 250, 1, 90, 6, 0, 1, 8, 0, 101, 9, 0, 7, 11, 1, 9, 14, 0, 14, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		r := &chainRig{t: t, in: prog, p: new(Pool), sp: mem.NewAddrSpace("fuzz", 256*units.KB, 8*units.KB)}
		r.p.Check()
		r.home.Check()
		for len(r.in) > 0 {
			r.step()
			r.verify()
		}
		for s := range r.chains {
			FreeChain(r.chains[s])
			r.chains[s] = nil
		}
		for i, pk := range r.pkts {
			if pk.freed != 1 {
				t.Fatalf("outboard packet %d freed %d times", i, pk.freed)
			}
		}
		if r.home.released != r.adopted {
			t.Fatalf("%d adopted buffers, %d sent home", r.adopted, r.home.released)
		}
	})
}

const (
	fuzzSlots = 3
	// fuzzMaxBytes bounds a chain: a program alternating CopyRange and Cat
	// doubles one each round.
	fuzzMaxBytes = 1 << 16
)

type chainRig struct {
	t      *testing.T
	in     []byte
	p      *Pool
	sp     *mem.AddrSpace
	chains [fuzzSlots]*Mbuf
	models [fuzzSlots][]byte
	pkts   []*hostPkt
	home   countingHome
	// adopted counts AdoptCluster calls; seq numbers fresh data.
	adopted, seq int
}

type countingHome struct {
	pool.Bytes
	released int
}

func (h *countingHome) Release(b []byte) {
	h.released++
	h.Put(b)
}

// arg consumes the next program byte (0 once the program is exhausted).
func (r *chainRig) arg() int {
	if len(r.in) == 0 {
		return 0
	}
	b := r.in[0]
	r.in = r.in[1:]
	return int(b)
}

// data returns n fresh bytes no earlier call returned.
func (r *chainRig) data(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		r.seq++
		b[i] = byte(r.seq*7 + r.seq>>8)
	}
	return b
}

// add appends m, holding bytes b, to slot s.
func (r *chainRig) add(s int, m *Mbuf, b []byte) {
	r.chains[s] = Cat(r.chains[s], m)
	model := r.models[s]
	r.models[s] = append(model[:len(model):len(model)], b...)
}

// free empties slot s.
func (r *chainRig) free(s int) {
	FreeChain(r.chains[s])
	r.chains[s], r.models[s] = nil, nil
}

func (r *chainRig) step() {
	for s := range r.chains {
		if len(r.models[s]) > fuzzMaxBytes {
			r.free(s)
		}
	}
	op, s := r.arg()%15, r.arg()%fuzzSlots
	o := (s + 1) % fuzzSlots
	m, model := r.chains[s], r.models[s]
	n := len(model)
	switch op {
	case 0: // regular mbuf
		b := r.data(r.arg() * int(MLEN) / 255)
		r.add(s, r.p.NewData(b), b)
	case 1: // cluster holding a copy
		b := r.data(r.arg() * 12)
		r.add(s, r.p.NewCluster(b), b)
	case 2: // cluster filled in place
		b := r.data(1 + r.arg()*16)
		c := r.p.AllocCluster(units.Size(len(b)))
		copy(c.Bytes(), b)
		r.add(s, c, b)
	case 3: // adopted buffer, window inside it
		buf := r.home.Get(784)
		copy(buf, r.data(len(buf)))
		off := r.arg() % 100
		ln := r.arg() * (len(buf) - off) / 255
		r.adopted++
		// The model copies the window: the buffer is poisoned when it
		// goes home.
		r.add(s, r.p.AdoptCluster(buf, units.Size(off), units.Size(ln), &r.home), append([]byte(nil), buf[off:off+ln]...))
	case 4: // M_UIO window of a user region
		b := r.data(1 + r.arg())
		ub := r.sp.Alloc(units.Size(len(b)), 1)
		copy(ub.Bytes(), b)
		off := r.arg() % (len(b) + 1)
		ln := r.arg() % (len(b) - off + 1)
		r.add(s, r.p.NewUIO(&mem.UIO{Buf: ub}, units.Size(off), units.Size(ln), nil), b[off:off+ln])
	case 5: // M_WCAB window of an outboard packet
		b := r.data(1 + r.arg()*4)
		pk := newHostPkt(b)
		r.pkts = append(r.pkts, pk)
		off := r.arg() % len(b)
		ln := 1 + r.arg()%(len(b)-off)
		r.add(s, r.p.NewWCAB(&pk.WCAB, units.Size(off), units.Size(ln), nil), b[off:off+ln])
	case 6: // Cat(s, o)
		r.chains[s] = Cat(m, r.chains[o])
		r.models[s] = append(model[:n:n], r.models[o]...)
		r.chains[o], r.models[o] = nil, nil
	case 7: // o = CopyRange(s, off, k)
		off := r.arg() * n / 255
		k := r.arg() * (n - off) / 255
		c := CopyRange(m, units.Size(off), units.Size(k))
		r.free(o)
		r.chains[o], r.models[o] = c, append([]byte(nil), model[off:off+k]...)
	case 8: // s, o = SplitAt(s, k)
		k := r.arg() * n / 255
		r.free(o)
		front, back := SplitAt(m, units.Size(k))
		r.chains[s], r.models[s] = front, model[:k:k]
		r.chains[o], r.models[o] = back, model[k:]
	case 9: // AdjFront
		k := r.arg() * n / 255
		r.chains[s], r.models[s] = AdjFront(m, units.Size(k)), model[k:]
	case 10: // TrimFront of the first mbuf
		if m != nil {
			k := r.arg() * int(m.Len()) / 255
			m.TrimFront(units.Size(k))
			r.models[s] = model[k:]
		}
	case 11: // TrimBack of the last mbuf
		if m != nil {
			l := Last(m)
			k := r.arg() * int(l.Len()) / 255
			l.TrimBack(units.Size(k))
			r.models[s] = model[: n-k : n-k]
		}
	case 12: // Prepend a header, then write it
		if m != nil {
			k := r.arg() * int(HeaderRoom) / 255
			h := m.Prepend(units.Size(k))
			b := r.data(k)
			copy(h.Bytes(), b)
			r.chains[s], r.models[s] = h, append(b, model...)
		}
	case 13: // FreeChain
		r.free(s)
	case 14: // Free the first mbuf
		if m != nil {
			k := int(m.Len())
			r.chains[s], r.models[s] = m.Free(), model[k:]
		}
	}
}

// verify checks every chain against its model.
func (r *chainRig) verify() {
	for s, m := range r.chains {
		model := r.models[s]
		if got := ChainLen(m); got != units.Size(len(model)) {
			r.t.Fatalf("slot %d: ChainLen %v, model %d bytes (types %v)", s, got, len(model), Types(m))
		}
		if !bytes.Equal(Materialize(m), model) {
			r.t.Fatalf("slot %d: Materialize disagrees with the model (types %v)", s, Types(m))
		}
		off := r.arg() * len(model) / 255
		k := r.arg() * (len(model) - off) / 255
		got := checksum.Fold(SumRange(m, units.Size(off), units.Size(k)))
		if want := checksum.Fold(checksum.Sum(model[off : off+k])); got != want {
			r.t.Fatalf("slot %d: SumRange(%d,+%d) folds to %#04x, model %#04x (types %v)", s, off, k, got, want, Types(m))
		}
	}
}
