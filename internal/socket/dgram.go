package socket

import (
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

// DGram is a UDP socket with copy semantics.
type DGram struct {
	K    *kern.Kernel
	VM   *kern.VM
	Task *kern.Task
	Sock *tcpip.UDPSock
	Cfg  Config

	// rcv does RecvFrom's copy-out under Cfg; wtrk is SendTo's parked
	// tracker.
	rcv  *Socket
	wtrk *tracker
}

// NewDGram binds a UDP socket (port 0 selects an ephemeral port). It fails
// when the port is taken or the ephemeral range is exhausted.
func NewDGram(k *kern.Kernel, vm *kern.VM, task *kern.Task, stk *tcpip.Stack, port uint16, cfg Config) (*DGram, error) {
	u, err := stk.UDPBind(port)
	if err != nil {
		return nil, err
	}
	return &DGram{K: k, VM: vm, Task: task, Sock: u, Cfg: cfg,
		rcv: &Socket{K: k, VM: vm, Task: task}}, nil
}

// MustDGram is NewDGram for callers whose bind cannot fail (fixed free
// ports in tests and tools); it panics on bind errors.
func MustDGram(k *kern.Kernel, vm *kern.VM, task *kern.Task, stk *tcpip.Stack, port uint16, cfg Config) *DGram {
	d, err := NewDGram(k, vm, task, stk, port, cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// SendTo transmits buf as one datagram. On the single-copy path the call
// blocks until the data is outboard; the driver frees the outboard packet
// after the media send (UDP has no retransmission state).
func (d *DGram) SendTo(p *sim.Proc, buf mem.Buf, dst wire.Addr, dport uint16) error {
	ctx := d.K.TaskCtx(p, d.Task).In("socket").WithFlow(int(d.Sock.Port()))
	ctx.Charge(d.K.Mach.SyscallCost, kern.CatSyscall)
	ctx.Charge(d.K.Mach.SocketPerPacket, kern.CatProto)
	// Per-flow netmem admission (no-op without an arbiter on the route).
	if adm := d.Sock.TxAdmitter(dst); adm != nil {
		adm.AdmitTx(p, int(d.Sock.Port()), buf.Len+wire.IPHdrLen+wire.UDPHdrLen)
	}
	u := mem.NewUIO(buf)
	useUIO := d.Cfg.Mode == ModeSingleCopy &&
		buf.Len >= d.Cfg.UIOThreshold &&
		u.AlignedTo(0, buf.Len, 4)
	if !useUIO {
		tmp := make([]byte, buf.Len)
		ctx.CopyFromUIO(u, 0, buf.Len, tmp, buf.Len)
		var head, tail *mbuf.Mbuf
		for off := units.Size(0); off < buf.Len; off += mbuf.MCLBYTES {
			n := buf.Len - off
			if n > mbuf.MCLBYTES {
				n = mbuf.MCLBYTES
			}
			d.K.WaitAlloc(p)
			cl := d.K.Mbufs.NewCluster(tmp[off : off+n])
			if head == nil {
				head = cl
			} else {
				tail.SetNext(cl)
			}
			tail = cl
		}
		d.Sock.SendTo(ctx, head, buf.Len, dst, dport)
		return nil
	}
	d.K.WaitAlloc(p)
	d.VM.MapUIO(ctx, u, 0, buf.Len)
	d.VM.PinUIO(ctx, u, 0, buf.Len)
	trk := take(&d.wtrk, d.K.Eng)
	defer park(&d.wtrk, trk)
	trk.add(buf.Len)
	m := d.K.Mbufs.NewUIO(u, 0, buf.Len, &mbuf.Hdr{Owner: trk})
	d.Sock.SendTo(ctx, m, buf.Len, dst, dport)
	trk.wait(p)
	d.VM.UnpinUIO(ctx, u, 0, buf.Len)
	var sb mem.SegBuf
	for _, seg := range u.Segments(0, buf.Len, sb[:0]) {
		d.VM.UnmapBuf(u.Space, seg.Addr, seg.Len)
	}
	return nil
}

// RecvFrom receives one datagram into buf, returning the byte count and
// source. Datagrams longer than buf are truncated (BSD semantics).
func (d *DGram) RecvFrom(p *sim.Proc, buf mem.Buf) (units.Size, wire.Addr, uint16) {
	ctx := d.K.TaskCtx(p, d.Task).In("socket").WithFlow(int(d.Sock.Port()))
	ctx.Charge(d.K.Mach.SyscallCost, kern.CatSyscall)
	for {
		dg := d.Sock.RecvFrom(p)
		if dg == nil {
			return 0, 0, 0
		}
		n := dg.Len
		if n > buf.Len {
			n = buf.Len
		}
		u := mem.NewUIO(buf)
		head, rest := mbuf.SplitAt(dg.Chain, n)
		d.rcv.Cfg = d.Cfg
		err := d.rcv.copyOut(ctx, u, head, n, nil, 0)
		mbuf.FreeChain(head)
		mbuf.FreeChain(rest)
		if err != nil {
			// The datagram's outboard payload died (adaptor reset) between
			// queueing and this read: the destination bytes are undefined.
			// UDP has no way to recover it — count a clean loss and wait
			// for the next datagram rather than deliver wiped bytes.
			d.Sock.CountDevResetDrop()
			continue
		}
		return n, dg.Src, dg.SPort
	}
}

// Close unbinds the socket.
func (d *DGram) Close() { d.Sock.Close() }
