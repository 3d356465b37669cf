// Fileserver: the Section 5 scenario of an IO-intensive in-kernel
// application. A block server lives inside host B's kernel and serves
// 64 KB blocks from its buffer cache (shared cluster mbufs) over TCP.
// Because the in-kernel API has share semantics, transmission over the CAB
// is automatically single-copy: each block is DMAed once into network
// memory with the checksum computed en route, with no changes to the
// server's code.
//
// A user-space client on host A reads blocks through ordinary sockets,
// receiving them over the single-copy read path, and verifies content.
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/kernapp"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
	"repro/internal/wire"
)

const (
	addrA = wire.Addr(0x0a000001)
	addrB = wire.Addr(0x0a000002)
	port  = 7777
)

func main() {
	tb := core.NewTestbed(7)
	a := tb.AddHost(core.HostConfig{Name: "client-host", Addr: addrA,
		Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "server-host", Addr: addrB,
		Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)

	// The in-kernel block server: 64 KB blocks.
	srv := kernapp.NewBlockServer(b.K, b.Stk, port, 64*units.KB)
	tb.Eng.Go("blockserver", srv.Run)

	const firstBlock, blockCount = 100, 32

	task := a.NewUserTask("client", 0)
	var got []byte
	tb.Eng.Go("client", func(p *sim.Proc) {
		s, err := a.Dial(p, task, addrB, port)
		if err != nil {
			panic(err)
		}
		req := task.Space.Alloc(kernapp.ReqLen, 8)
		copy(req.Bytes(), kernapp.EncodeRequest(firstBlock, blockCount))
		s.WriteAll(p, req)
		copy(req.Bytes(), kernapp.EncodeRequest(0, 0)) // end of session
		s.WriteAll(p, req)

		buf := task.Space.Alloc(128*units.KB, 8)
		start := p.Now()
		for {
			n, err := s.Read(p, buf)
			if n > 0 {
				got = append(got, buf.Slice(0, n).Bytes()...)
			}
			if err != nil {
				break
			}
		}
		fmt.Printf("client: fetched %d blocks (%v) in %v\n",
			blockCount, units.Size(len(got)), p.Now()-start)
	})

	tb.Eng.Run()
	tb.Eng.KillAll()

	// Verify every block end to end.
	ok := true
	for i := 0; i < blockCount; i++ {
		want := srv.Block(uint32(firstBlock + i))
		lo := i * len(want)
		if lo+len(want) > len(got) || !bytes.Equal(got[lo:lo+len(want)], want) {
			ok = false
			fmt.Printf("block %d corrupted!\n", firstBlock+i)
		}
	}
	fmt.Printf("integrity: all blocks verified = %v\n", ok)
	fmt.Printf("server host CPU copy time: %v (share-semantics mbufs → single copy)\n",
		b.K.CategoryBreakdown()["copy"])
	fmt.Printf("server stats: %d requests, %d blocks served\n", srv.Requests, srv.BlocksServed)
	if !ok {
		os.Exit(1)
	}
}
