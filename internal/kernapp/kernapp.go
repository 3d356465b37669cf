// Package kernapp supports in-kernel applications (Section 5): file
// servers, ICMP-like services, and other kernel-resident network users.
// Their communication API has share semantics — mbuf chains are the shared
// buffers — so over the CAB they get single-copy communication
// automatically: the data is copied once by DMA and checksummed during
// that copy.
//
// Two of the paper's four interoperation scenarios are handled here:
//
//   - Transmit: chains of regular/cluster mbufs pass through the modified
//     stack unchanged (it still handles regular mbufs); the driver checks
//     the format and fixes it if the chain cannot accommodate the larger
//     headers the WCAB conversion needs.
//
//   - Receive: M_WCAB mbufs passed up by the CAB driver would not be
//     handled correctly by existing in-kernel code, so they are converted
//     to regular mbufs before entering the application. Because the copy
//     is a DMA, the application must resynchronize with the driver when it
//     terminates; conversion happens in receive order, so large (DMA) and
//     small (no DMA) packets are not reordered — the concern Section 5
//     raises about confusing clients.
//
// (The other two scenarios — user sockets over existing devices, and
// receive from existing devices — live in the driver-entry shim and need
// nothing here.)
package kernapp

import (
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// KConn is a TCP connection endpoint used from kernel context with share
// semantics.
type KConn struct {
	K    *kern.Kernel
	Conn *tcpip.TCPConn

	// Converted counts WCAB→regular receive conversions performed.
	Converted int
	// ConvertedBytes counts bytes moved by those conversions.
	ConvertedBytes units.Size

	copies copyWait
}

// copyWait counts a conversion's DMA copy-outs still in flight.
type copyWait struct {
	pending int
	done    *sim.Signal
}

// CopyDone implements mbuf.CopyNotifier. An adaptor reset surfaces as
// zeroed buffers here; the UDP datagram path has no retransmission to lean
// on, so the wiped payload is simply delivered short of its checksum (and
// dropped upstream).
func (w *copyWait) CopyDone(units.Size, error) {
	w.pending--
	w.done.Broadcast()
}

// NewKConn wraps an established connection.
func NewKConn(k *kern.Kernel, c *tcpip.TCPConn) *KConn {
	return &KConn{K: k, Conn: c, copies: copyWait{done: sim.NewSignal(k.Eng)}}
}

// Send transmits an mbuf chain with share semantics: ownership of the
// chain passes to the stack; the caller must not touch it afterwards. The
// call blocks only for send-buffer space, not for transmission — exactly
// the semantics kernel producers expect.
func (kc *KConn) Send(p *sim.Proc, chain *mbuf.Mbuf) error {
	n := mbuf.ChainLen(chain)
	ctx := kc.K.TaskCtx(p, kc.K.KernelTask)
	for kc.Conn.SndAvail() < n {
		if err := kc.Conn.WaitSndSpace(p); err != nil {
			mbuf.FreeChain(chain)
			return err
		}
		if kc.Conn.SndAvail() >= n {
			break
		}
	}
	ctx.Charge(kc.K.Mach.SocketPerPacket, kern.CatProto)
	return kc.Conn.Append(ctx, chain, n, true)
}

// Recv returns up to max bytes of received data as a chain of REGULAR
// mbufs, converting any M_WCAB descriptors with an asynchronous DMA copy
// and resynchronizing on its completion. It returns nil at end of stream.
func (kc *KConn) Recv(p *sim.Proc, max units.Size) (*mbuf.Mbuf, error) {
	if !kc.Conn.WaitRcvData(p) {
		if kc.Conn.Err != nil {
			return nil, kc.Conn.Err
		}
		return nil, nil // orderly EOF
	}
	chain, n := kc.Conn.DequeueRcv(max)
	if n == 0 {
		return nil, nil
	}
	ctx := kc.K.TaskCtx(p, kc.K.KernelTask)
	out := kc.convert(p, ctx, chain)
	kc.Conn.WindowUpdate(ctx)
	return out, nil
}

// convert rebuilds a dequeued chain with every descriptor materialized
// into kernel buffers.
func (kc *KConn) convert(p *sim.Proc, ctx kern.Ctx, chain *mbuf.Mbuf) *mbuf.Mbuf {
	var head, tail *mbuf.Mbuf
	appendM := func(m *mbuf.Mbuf) {
		if head == nil {
			head = m
		} else {
			tail.SetNext(m)
		}
		tail = m
	}
	for m := chain; m != nil; {
		next := m.Next()
		m.SetNext(nil)
		switch m.Type() {
		case mbuf.TData, mbuf.TCluster:
			appendM(m)
		case mbuf.TWCAB:
			w := m.WCABRef()
			ln := m.Len()
			kc.Converted++
			kc.ConvertedBytes += ln
			// Asynchronous DMA copy; resynchronize with the driver on its
			// end-of-DMA notification (Section 5).
			var bufs [][]byte
			var ms []*mbuf.Mbuf
			for off := units.Size(0); off < ln; off += mbuf.MCLBYTES {
				sz := ln - off
				if sz > mbuf.MCLBYTES {
					sz = mbuf.MCLBYTES
				}
				b := make([]byte, sz)
				bufs = append(bufs, b)
				ms = append(ms, mbuf.AdoptCluster(b, 0, sz))
			}
			kc.copies.pending++
			w.Handle.CopyOut(m.Off(), ln, bufs, &kc.copies)
			for kc.copies.pending > 0 {
				kc.copies.done.Wait(p)
			}
			ctx.Charge(kc.K.Mach.InterruptCost, kern.CatIntr)
			for _, cm := range ms {
				appendM(cm)
			}
			m.Free()
		case mbuf.TUIO:
			panic("kernapp: M_UIO mbuf in receive path")
		}
		m = next
	}
	return head
}

// RecvAll drains the stream into a single byte slice (convenience for
// tests and simple services).
func (kc *KConn) RecvAll(p *sim.Proc) ([]byte, error) {
	var out []byte
	for {
		chain, err := kc.Recv(p, 256*units.KB)
		if err != nil {
			return out, err
		}
		if chain == nil {
			return out, nil
		}
		out = append(out, mbuf.Materialize(chain)...)
		mbuf.FreeChain(chain)
	}
}

// Close half-closes the connection from kernel context.
func (kc *KConn) Close(p *sim.Proc) {
	kc.Conn.Close(kc.K.TaskCtx(p, kc.K.KernelTask))
}
