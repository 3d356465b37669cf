package socket_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// TestQueuedCopiesOutliveTheirWrite: a retransmitted segment copy can sit
// at the driver after the write it was cut from has returned, and it must
// then still see that write's user region — find its pages unpinned and
// drop — whatever the socket's next calls describe. The tracker a write's
// descriptors hang off is reused only once no M_UIO mbuf points at them.
//
// The network memory of both adaptors is withheld from 5 ms to 300 ms,
// then for 100 ms leaves room for two 32 KB packets. The sender writes
// from one 64 KB buffer, then 1000 bytes from another, and so on, with a
// 64 KB send buffer. Its first write's two segments wait for memory until
// the retransmission timer fires and queues a copy of the first behind
// them. At 300 ms the two originals take the room there is and their DMAs
// end the write; the copy waits for memory, and the short write for send
// space, until the ACK frees both. The copy must then find the first
// write's pages unpinned, not the short write's 1000-byte region (a reused
// region is too short for it, and one long enough would put the next
// write's bytes on the wire under the old sequence numbers, with a valid
// outboard checksum). The receiver checks every byte, and the run in check
// mode, where a parked tracker's region is zeroed and a released header's
// owner panics, must reproduce the plain one.
func TestQueuedCopiesOutliveTheirWrite(t *testing.T) {
	run := func(check bool) string {
		const plan = "netmem:at=5ms,until=300ms;netmem:at=300ms,until=400ms,pages=502"
		tb := core.NewTestbed(21)
		if check {
			tb.CheckPools()
		}
		inj := fault.New(tb.Eng, 1)
		if err := inj.AddPlan(plan); err != nil {
			t.Fatal(err)
		}
		tb.EnableFaults(inj)
		a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
		b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2})
		tb.RouteCAB(a, b)
		if pages := a.CAB.TotalPages(); pages != 512 {
			t.Fatalf("the plan assumes 512 pages of network memory, the adaptor has %d", pages)
		}
		const writes, short = 16, 1000
		total := writes / 2 * (64*units.KB + short)
		lis := b.Stk.Listen(port)
		var got units.Size
		rt := b.NewUserTask("rcv", 0)
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			s := b.Accept(p, rt, lis)
			buf := rt.Space.Alloc(64*units.KB, 8)
			for got < total {
				n, err := s.Read(p, buf)
				if err != nil || n == 0 {
					t.Errorf("check=%v: read at %v: n=%v err=%v", check, got, n, err)
					return
				}
				for i, c := range buf.Bytes()[:n] {
					if want := streamByte(got + units.Size(i)); c != want {
						t.Errorf("check=%v: stream byte %v = %#x, want %#x", check, got+units.Size(i), c, want)
						return
					}
				}
				got += n
			}
		})
		st := a.NewUserTask("snd", 0)
		tb.Eng.Go("snd", func(p *sim.Proc) {
			s, err := a.Dial(p, st, addrB, port)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			s.Conn.SndLimit = 64 * units.KB
			p.Sleep(10 * units.Millisecond)
			bufs := [2]mem.Buf{st.Space.Alloc(64*units.KB, 8), st.Space.Alloc(short, 8)}
			var off units.Size
			for i := 0; i < writes; i++ {
				buf := bufs[i%2]
				b := buf.Bytes()
				for j := range b {
					b[j] = streamByte(off + units.Size(j))
				}
				if err := s.WriteAll(p, buf); err != nil {
					t.Errorf("check=%v: write %d: %v", check, i, err)
					return
				}
				off += buf.Len
			}
		})
		tb.Eng.Run()
		if got != total {
			t.Errorf("check=%v: received %v of %v", check, got, total)
		}
		if a.Drv.Stats.TxStaleAcked == 0 {
			t.Errorf("check=%v: no queued segment copy outlived its write: %+v", check, a.Drv.Stats)
		}
		return fmt.Sprintf("%v %+v %+v", tb.Eng.Now(), a.Stk.Stats, a.Drv.Stats)
	}
	if plain, checked := run(false), run(true); checked != plain {
		t.Errorf("check mode changed the run\nplain:   %s\nchecked: %s", plain, checked)
	}
}

// streamByte is the byte at offset off of TestQueuedCopiesOutliveTheirWrite's
// stream.
func streamByte(off units.Size) byte { return byte(off*7 + off>>9) }
