package tcpip

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/units"
)

// creditCount is a descriptor owner that sums what it is credited.
type creditCount struct{ n units.Size }

func (o *creditCount) DMADone(n units.Size) { o.n += n }

// outboardPkt is an outboard packet held in host memory.
type outboardPkt struct {
	mbuf.WCAB
	data  []byte
	freed int
}

func (p *outboardPkt) Read(off, n units.Size) []byte { return p.data[off : off+n] }
func (p *outboardPkt) Dead() bool                    { return false }
func (p *outboardPkt) Free()                         { p.freed++ }
func (p *outboardPkt) CopyOut(off, n units.Size, dst [][]byte, to mbuf.CopyNotifier) {
	panic("outboardPkt: CopyOut")
}

// TestSentRangeHandBack hands a sent range back to the send buffer through
// both paths, the CAB's M_WCAB conversion (onOutboard) and the legacy
// shim's materialized copy (onConverted), including a range whose prefix
// was acknowledged while the hand-back was pending. The still-unacknowledged
// part is replaced by the outboard window or the kernel copy, its M_UIO
// descriptor credits its owner for exactly those bytes, and a range with
// nothing left in the buffer changes nothing and credits nothing (the
// outboard packet is freed).
func TestSentRangeHandBack(t *testing.T) {
	const una = 5000 // sndUna: stream byte 100 of the write below
	write := pattern(400, 3)
	// The segment carried write bytes [40, 200): stream [4940, 5100).
	const segSeq, segLen = una - 60, 160
	seg := write[40:200]

	cases := []struct {
		name     string
		seq      uint32
		closed   bool
		replaced bool
	}{
		{"prefix-acked", segSeq, false, true},
		{"all-acked", una - 200, false, false},
		{"past-buffer", una + 200, false, false},
		{"closed", segSeq, true, false},
	}
	paths := []struct {
		name string
		typ  mbuf.Type
		hand func(c *TCPConn, seq uint32) (freed func() int)
	}{
		{"wcab", mbuf.TWCAB, func(c *TCPConn, seq uint32) func() int {
			p := &outboardPkt{data: seg}
			p.Handle, p.Valid = p, segLen
			c.onOutboard(seq, segLen, &p.WCAB)
			return func() int { return p.freed }
		}},
		{"converted", mbuf.TCluster, func(c *TCPConn, seq uint32) func() int {
			hdrs := make([]byte, 54)
			pkt := mbuf.Cat(mbuf.NewCluster(hdrs), mbuf.NewCluster(seg))
			c.onConverted(seq, segLen, pkt)
			mbuf.FreeChain(pkt)
			return nil
		}},
	}
	for _, path := range paths {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%s", path.name, tc.name), func(t *testing.T) {
				k := kern.New("A", sim.NewEngine(1), cost.Alpha400())
				space := mem.NewAddrSpace("u", 64*units.KB, 8*units.KB)
				buf := space.Alloc(units.Size(len(write)), 4)
				copy(space.Bytes(buf.Addr, buf.Len), write)
				owner := &creditCount{}
				c := &TCPConn{stk: NewStack(k, 1), state: StateEstablished, sndUna: una, sndLen: 300}
				if tc.closed {
					c.state = StateClosed
				}
				// Write bytes [0, 100) are acknowledged: the buffer holds the rest.
				c.sndBuf = mbuf.NewUIO(&mem.UIO{Buf: buf}, 100, 300, &mbuf.Hdr{Owner: owner})

				freed := path.hand(c, tc.seq)

				if got := mbuf.Materialize(c.sndBuf); !bytes.Equal(got, write[100:]) {
					t.Fatal("send buffer bytes changed")
				}
				wantTypes, wantCredit := []mbuf.Type{mbuf.TUIO}, units.Size(0)
				if tc.replaced {
					wantTypes, wantCredit = []mbuf.Type{path.typ, mbuf.TUIO}, 100
				}
				if got := mbuf.Types(c.sndBuf); fmt.Sprint(got) != fmt.Sprint(wantTypes) {
					t.Errorf("send buffer types %v, want %v", got, wantTypes)
				}
				if got := mbuf.ChainLen(c.sndBuf); got != c.sndLen {
					t.Errorf("send buffer holds %v, sndLen %v", got, c.sndLen)
				}
				if owner.n != wantCredit {
					t.Errorf("owner credited %v, want %v", owner.n, wantCredit)
				}
				if freed != nil {
					want := 1
					if tc.replaced {
						want = 0
					}
					if got := freed(); got != want {
						t.Errorf("outboard packet freed %d times, want %d", got, want)
					}
				}
			})
		}
	}
}
