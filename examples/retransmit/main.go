// Retransmit: outboard buffering under packet loss (Section 4.3). Frames
// are dropped on the HIPPI fabric; TCP retransmits from the M_WCAB data
// still resident in CAB network memory using a header-only SDMA — the
// adaptor overlays the fresh header on the old packet and combines the new
// header seed with the body checksum it saved on the first transmission,
// so retransmission never touches the data again (not in user space, not
// even in network memory).
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	port  = 5001
)

func main() {
	tb := core.NewTestbed(23)
	// Drop every 9th data-bearing frame (control traffic passes).
	inj := fault.New(tb.Eng, 23)
	inj.Add(fault.Rule{Kind: fault.Drop, When: fault.Every(9), MinLen: 1000})
	tb.EnableFaults(inj)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)

	const total = 4 * units.MB
	lis := b.Stk.Listen(port)
	var got []byte
	rt := b.NewUserTask("rcv", 0)
	tb.Eng.Go("receiver", func(p *sim.Proc) {
		s := b.Accept(p, rt, lis)
		buf := rt.Space.Alloc(128*units.KB, 8)
		for {
			r, err := s.Read(p, buf)
			if r > 0 {
				got = append(got, buf.Slice(0, r).Bytes()...)
			}
			if err != nil {
				return
			}
		}
	})

	st := a.NewUserTask("snd", 0)
	tb.Eng.Go("sender", func(p *sim.Proc) {
		s, err := a.Dial(p, st, addrB, port)
		if err != nil {
			panic(err)
		}
		buf := st.Space.Alloc(128*units.KB, 8)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = byte(3 * i)
		}
		for sent := units.Size(0); sent < total; sent += buf.Len {
			s.WriteAll(p, buf)
		}
		s.Close(p)
	})

	tb.Eng.Run()
	tb.Eng.KillAll()

	want := make([]byte, 128*units.KB)
	for i := range want {
		want[i] = byte(3 * i)
	}
	intact := units.Size(len(got)) == total
	for off := 0; intact && off < len(got); off += len(want) {
		intact = bytes.Equal(got[off:off+len(want)], want)
	}

	fmt.Printf("transferred %v with %d frames dropped in flight\n",
		units.Size(len(got)), inj.Fired[fault.Drop])
	fmt.Printf("data intact: %v\n", intact)
	fmt.Printf("TCP retransmissions .................. %d\n", a.Stk.Stats.TCPRetransmits)
	fmt.Printf("header-only SDMA overlays ............ %d (body never re-read)\n", a.Drv.Stats.TxOverlays)
	fmt.Printf("fallback data re-reads ............... %d\n", a.Drv.Stats.TxFallbackReads)
	fmt.Printf("checksum failures at receiver ........ %d\n", b.Stk.Stats.TCPCsumErrors)
	fmt.Printf("receiver out-of-order segments held .. %d\n", b.Stk.Stats.TCPOutOfOrder)
	fmt.Printf("network memory reclaimed ............. %v\n",
		a.CAB.FreePages() == a.CAB.TotalPages() && b.CAB.FreePages() == b.CAB.TotalPages())
	if !intact {
		os.Exit(1)
	}
}
