// Mixeddevices: one single-copy stack, many kinds of interfaces (Section
// 4.1's argument for a single stack, and Section 5's interoperation
// shims). Host A reaches host B two ways — over the CAB (single-copy,
// outboard checksums) and over a legacy Ethernet-class device (descriptor
// mbufs converted by the thin shim at the driver entry point) — plus
// talks to itself over loopback. Host R demonstrates IP routing between
// unlike interfaces: packets from C (Ethernet-only) are forwarded by R
// onto the HIPPI fabric toward B.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/netif"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	addrC = wire.Addr(0x0a000003)
	addrR = wire.Addr(0x0a0000fe)
)

// transfer starts one stream of n bytes; the returned report prints what
// arrived and says whether it was all of it.
func transfer(tb *core.Testbed, from, to *core.Host, dst wire.Addr, port uint16, n units.Size) func() bool {
	lis := to.Stk.Listen(port)
	var got units.Size
	rt := to.NewUserTask(fmt.Sprintf("rcv%d", port), 0)
	tb.Eng.Go("rcv", func(p *sim.Proc) {
		s := to.Accept(p, rt, lis)
		buf := rt.Space.Alloc(64*units.KB, 8)
		for {
			r, err := s.Read(p, buf)
			got += r
			if err != nil {
				return
			}
		}
	})
	st := from.NewUserTask(fmt.Sprintf("snd%d", port), 0)
	tb.Eng.Go("snd", func(p *sim.Proc) {
		s, err := from.Dial(p, st, dst, port)
		if err != nil {
			panic(err)
		}
		buf := st.Space.Alloc(64*units.KB, 8)
		for sent := units.Size(0); sent < n; sent += buf.Len {
			s.WriteAll(p, buf)
		}
		s.Close(p)
	})
	return func() bool {
		fmt.Printf("  port %d: received %v of %v\n", port, got, n)
		return got == n
	}
}

func main() {
	tb := core.NewTestbed(11)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: addrA, Mode: socket.ModeSingleCopy,
		CABNode: 1, EthNode: 11, Loopback: true})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: addrB, Mode: socket.ModeSingleCopy,
		CABNode: 2, EthNode: 12})
	c := tb.AddHost(core.HostConfig{Name: "C", Addr: addrC, Mode: socket.ModeSingleCopy,
		CABNode: 9, EthNode: 13})
	r := tb.AddHost(core.HostConfig{Name: "R", Addr: addrR, Mode: socket.ModeSingleCopy,
		CABNode: 3, EthNode: 14})

	// A↔B over the CAB.
	tb.RouteCAB(a, b)
	// C reaches B via router R: C→R on Ethernet, R→B on HIPPI.
	c.Stk.Routes.AddHost(addrB, c.Eth, netif.LinkAddr(14))
	r.Stk.Routes.AddHost(addrB, r.Drv, netif.LinkAddr(2))
	b.Stk.Routes.AddHost(addrC, b.Drv, netif.LinkAddr(3)) // replies via R
	r.Stk.Routes.AddHost(addrC, r.Eth, netif.LinkAddr(13))
	tb.RouteCAB(c, r) // unused CAB path for completeness

	fmt.Println("running three concurrent transfers through one stack:")

	// 1. A→B over the CAB: the single-copy path.
	p1 := transfer(tb, a, b, addrB, 6001, 2*units.MB)

	// 2. A→A over loopback: descriptor mbufs materialized by the shim.
	p2 := transfer(tb, a, a, addrA, 6002, 512*units.KB)

	// 3. C→B routed by R between unlike devices.
	p3 := transfer(tb, c, b, addrB, 6003, 1*units.MB)

	tb.Eng.Run()
	tb.Eng.KillAll()

	ok1, ok2, ok3 := p1(), p2(), p3()
	fmt.Println("\ninteroperation evidence:")
	fmt.Printf("  A loopback conversions (shim) ......... %d packets\n", a.Lo.TxPackets)
	fmt.Printf("  R forwarded between interfaces ........ %d packets\n", r.Stk.Stats.IPForwarded)
	fmt.Printf("  B hardware-checksum verifications ..... %d\n", b.Stk.Stats.HWCsumVerified)
	fmt.Printf("  B software-checksum verifications ..... %d (Ethernet/routed arrivals)\n", b.Stk.Stats.SWCsumVerified)
	fmt.Printf("  C Ethernet driver shim conversions .... %d\n", c.Eth.Converted)
	if !ok1 || !ok2 || !ok3 {
		os.Exit(1)
	}
}
