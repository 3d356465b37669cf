// Package socket implements the Berkeley sockets layer with copy
// semantics — the API whose efficient support is the point of the paper.
//
// On the traditional path, Write copies user data into kernel cluster
// mbufs and Read copies it back out. On the single-copy path, Write
// instead maps and pins the user pages and appends M_UIO descriptor mbufs;
// the write returns only after every byte has been secured outboard (the
// outstanding-DMA counter of Section 4.4.2), preserving copy semantics
// without a host copy. Read issues SDMA copy-out for M_WCAB data straight
// into the user's buffer.
//
// Per Section 4.4.3 the path is chosen per operation: small or unaligned
// reads/writes use the traditional copy path even in single-copy mode.
package socket

import (
	"errors"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/taxonomy"
	"repro/internal/tcpip"
	"repro/internal/units"
	"repro/internal/wire"
)

// Mode selects the stack variant (Figure 2: original vs modified).
type Mode int

// Stack variants.
const (
	// ModeUnmodified is the original stack: data is always channeled
	// through kernel buffers and checksummed in software.
	ModeUnmodified Mode = iota
	// ModeSingleCopy is the modified stack with descriptor mbufs and
	// outboard checksumming.
	ModeSingleCopy
)

// Cells returns the Table 1 cells the stack variant realizes on transmit
// and on receive: the data-touch ledger audits a flow against them.
func (m Mode) Cells() (tx, rx taxonomy.Cell) {
	c := taxonomy.Unmodified
	if m == ModeSingleCopy {
		c = taxonomy.CAB
	}
	return taxonomy.Derive(c), taxonomy.DeriveReceive(c)
}

// ErrEOF is returned by Read at orderly end of stream.
var ErrEOF = errors.New("socket: end of stream")

// Config carries per-socket policy.
type Config struct {
	Mode Mode
	// UIOThreshold is the smallest write that uses the single-copy path
	// (Section 4.4.3). Zero means always (the paper's measured
	// configuration).
	UIOThreshold units.Size
	// AlignFirstPacket enables the Section 4.5 optimization the paper
	// describes but did not implement: for a large but misaligned write,
	// send a short first chunk through the copy path so the bulk of the
	// data becomes word-aligned and can be DMAed. "This might pay off for
	// very large writes."
	AlignFirstPacket bool
}

// alignMinWrite is the smallest write the AlignFirstPacket optimization
// applies to.
const alignMinWrite = 64 * units.KB

// Socket is a connected stream (TCP) socket.
type Socket struct {
	K    *kern.Kernel
	VM   *kern.VM
	Task *kern.Task
	Conn *tcpip.TCPConn
	Cfg  Config

	// st is where the socket's calls are counted: the host's K.Sock for a
	// stream socket.
	st *kern.SockStats

	// The writer's and the reader's trackers, parked between system calls
	// (see take).
	wtrk, rtrk *tracker
}

// NewSocket wraps an established connection. The host's first socket
// registers the socket.* metrics, which read the host-wide counts in
// k.Sock; a host that never opens one exports none.
func NewSocket(k *kern.Kernel, vm *kern.VM, task *kern.Task, conn *tcpip.TCPConn, cfg Config) *Socket {
	s := &Socket{K: k, VM: vm, Task: task, Conn: conn, Cfg: cfg, st: &k.Sock}
	if cfg.Mode == ModeSingleCopy {
		conn.NoCoalesce = true
	}
	if r := k.Obs; r != nil && !r.Has("socket.uio_writes") {
		st := &k.Sock
		r.Func("socket.uio_writes", func() int64 { return int64(st.UIOWrites) })
		r.Func("socket.copy_writes", func() int64 { return int64(st.CopyWrites) })
		r.Func("socket.uio_reads", func() int64 { return int64(st.UIOReads) })
		r.Func("socket.copy_reads", func() int64 { return int64(st.CopyReads) })
		r.Func("socket.aligned_writes", func() int64 { return int64(st.AlignedWrites) })
		r.Func("socket.dma_wait_wakeups", func() int64 { return int64(st.DMAWaitWakeups) })
	}
	return s
}

// tracker is the outstanding-DMA (UIO) counter that synchronizes
// application wakeup with the driver (Section 4.4.2), with the rest of one
// system call's descriptors and DMA bookkeeping: the call's user region,
// the uiowCABhdrs of its M_UIO descriptors, the first copy-out error and
// the ranges pinned for the DMAs. A socket keeps one per direction and
// reuses it across system calls, so a call allocates none of these.
type tracker struct {
	pending units.Size
	err     error
	sig     *sim.Signal
	mbufs   *mbuf.Pool  // where hdrs come from and go back to
	uio     mem.UIO     // the call's user region, reset per call
	hdrs    []*mbuf.Hdr // the call's uiowCABhdrs, released at park
	pinned  []mem.Iovec // UIO ranges to unpin when the call ends
	scatter [][]byte    // a copy-out's one-entry destination list, reused
}

// take hands a system call the tracker parked in *slot, or a fresh one
// when the slot is empty: on first use, or while another call on the same
// socket holds it. The tracker's UIO describes buf.
func take(slot **tracker, e *sim.Engine, mbufs *mbuf.Pool, buf mem.Buf) *tracker {
	t := *slot
	if t == nil {
		t = &tracker{sig: sim.NewSignal(e), mbufs: mbufs}
	} else {
		*slot = nil
	}
	t.uio.Buf = buf
	return t
}

// park ends t's system call and returns t to *slot for the next one —
// unless the call's descriptors are still in use. DMAs it counted may be
// outstanding (a call abandoned by a connection error): their late
// completions must not land on the next call's count. Or an M_UIO mbuf
// cut from the call may still point at its headers and its UIO: a
// retransmitted segment copy still queued at the driver when the first
// copy's DMA ended the call, which the driver drops once it sees the
// call's pages unpinned. Such a tracker is left to those holders and the
// garbage collector, and the next call takes a fresh one.
//
// Otherwise every M_UIO byte of the call has been secured outboard,
// acknowledged or dropped with its connection, and no mbuf describes it
// any more: copy semantics end, and the call's uiowCABhdrs go back to the
// pool.
func park(slot **tracker, t *tracker) {
	if t.pending != 0 {
		return
	}
	for _, h := range t.hdrs {
		if h.Refs() != 0 {
			return
		}
	}
	for _, h := range t.hdrs {
		t.mbufs.FreeHdr(h)
	}
	t.hdrs = t.hdrs[:0]
	if t.mbufs.Checking() {
		// Check mode (see internal/pool): the tracker is poisoned and
		// never parked, so a descriptor still pointing at its UIO panics
		// at the access instead of reading the next call's region.
		t.uio.Buf = mem.Buf{}
		return
	}
	t.err = nil
	t.pinned = t.pinned[:0]
	*slot = t
}

// hdr takes a uiowCABhdr from the pool for one of the call's M_UIO
// descriptors, owned by t and tagged with sosend descriptor id desc.
func (t *tracker) hdr(desc int64) *mbuf.Hdr {
	h := t.mbufs.AllocHdr()
	*h = mbuf.Hdr{Owner: t, DescID: desc}
	t.hdrs = append(t.hdrs, h)
	return h
}

func (t *tracker) add(n units.Size) { t.pending += n }

// fail records err unless an earlier error is already recorded.
func (t *tracker) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

// CopyDone implements mbuf.CopyNotifier.
func (t *tracker) CopyDone(n units.Size, err error) {
	if err != nil {
		t.fail(err)
	}
	t.DMADone(n)
}

// DMADone implements mbuf.Notifier.
func (t *tracker) DMADone(n units.Size) {
	t.pending -= n
	if t.pending <= 0 {
		t.sig.Broadcast()
	}
}

func (t *tracker) wait(p *sim.Proc) {
	for t.pending > 0 {
		t.sig.Wait(p)
	}
}

// Write sends the whole buffer, blocking until it may be reused (copy
// semantics): on the traditional path when the last byte is copied into
// kernel buffers, on the single-copy path when the last byte is secured
// outboard.
func (s *Socket) Write(p *sim.Proc, buf mem.Buf) (units.Size, error) {
	ctx := s.K.TaskCtx(p, s.Task).In("socket").WithFlow(int(s.Conn.LocalPort()))
	ctx.Charge(s.K.Mach.SyscallCost, kern.CatSyscall)
	// The gap since the writer's previous event is the application's own
	// time (or, for the first write, the chain root).
	s.Conn.WriteChain().Ev(obs.CauseApp, obs.EvWriteStart, s.Conn.AppendStreamOff(), buf.Len)

	trk := take(&s.wtrk, s.K.Eng, s.K.Mbufs, buf)
	defer park(&s.wtrk, trk)
	u := &trk.uio
	aligned := u.AlignedTo(0, buf.Len, 4) // word alignment (Section 4.5)
	useUIO := s.Cfg.Mode == ModeSingleCopy &&
		buf.Len >= s.Cfg.UIOThreshold &&
		aligned
	if useUIO {
		s.st.UIOWrites++
		return s.writeUIO(ctx, trk, buf)
	}
	if !aligned && s.alignable(buf) {
		// Section 4.5 extension: peel off a short misaligned prefix via
		// the copy path; the remainder is word-aligned and takes the
		// single-copy path.
		prefix := 4 - buf.Addr%4
		s.st.AlignedWrites++
		n1, err := s.writeCopy(ctx, u, buf.Slice(0, prefix))
		if err != nil {
			return n1, err
		}
		// The copy is done with the prefix: the rest gets a region of its
		// own, as the single-copy path addresses it from offset 0.
		rest := buf.Slice(prefix, buf.Len-prefix)
		u.Buf = rest
		n2, err := s.writeUIO(ctx, trk, rest)
		return n1 + n2, err
	}
	s.st.CopyWrites++
	return s.writeCopy(ctx, u, buf)
}

// alignable reports whether the alignment optimization applies to buf.
func (s *Socket) alignable(buf mem.Buf) bool {
	if s.Cfg.Mode != ModeSingleCopy || !s.Cfg.AlignFirstPacket {
		return false
	}
	return buf.Len >= alignMinWrite && buf.Len >= s.Cfg.UIOThreshold
}

// writeCopy is the traditional sosend: copy into cluster mbufs.
func (s *Socket) writeCopy(ctx kern.Ctx, u *mem.UIO, buf mem.Buf) (units.Size, error) {
	c := s.Conn
	total := buf.Len
	chunkMax := c.MaxSeg
	// Ledger attribution: this write's byte 0 lands at the current append
	// stream offset (stable across the loop: ACKs shift sndUna and sndLen
	// in lockstep). The copies below address the UIO at write offsets, so
	// the base maps them straight to stream bytes.
	ctx = ctx.OnStream(int(c.LocalPort()), c.AppendStreamOff())
	w := c.WriteChain()
	boundary := true
	for sent := units.Size(0); sent < total; {
		if err := c.WaitSndSpace(ctx.P); err != nil {
			return sent, err
		}
		chunk := total - sent
		if avail := c.SndAvail(); chunk > avail {
			chunk = avail
		}
		if chunk > chunkMax {
			chunk = chunkMax
		}
		// Per-flow netmem admission (no-op without an arbiter): throttle
		// here, above the shared transmit daemon, so an over-share flow
		// blocks only its own writer.
		c.AdmitSnd(ctx.P, chunk)
		ctx.Charge(s.K.Mach.SocketPerPacket, kern.CatProto)
		var head, tail *mbuf.Mbuf
		for off := units.Size(0); off < chunk; off += mbuf.MCLBYTES {
			n := chunk - off
			if n > mbuf.MCLBYTES {
				n = mbuf.MCLBYTES
			}
			s.K.WaitAlloc(ctx.P)
			cl := s.K.Mbufs.AllocCluster(n)
			ctx.CopyFromUIO(u, sent+off, n, cl.Bytes(), total)
			if head == nil {
				head = cl
			} else {
				tail.SetNext(cl)
			}
			tail = cl
		}
		// The chunk's bytes became sendable when the CPU finished copying
		// them into kernel clusters: a data-touching CPU edge. Append links
		// the chunk to the writer's latest event, so this one comes last.
		w.Ev(obs.CauseCPUCopy, obs.EvSockCopy, c.AppendStreamOff(), chunk)
		if err := c.Append(ctx, head, chunk, boundary); err != nil {
			return sent, err
		}
		w.Ev(obs.CauseCPU, obs.EvSockAppend, c.AppendStreamOff(), chunk)
		boundary = false
		sent += chunk
	}
	return total, nil
}

// writeUIO is the single-copy sosend of buf, which trk's UIO describes:
// map and pin incrementally, append M_UIO descriptors, and wait for the
// outstanding DMAs.
func (s *Socket) writeUIO(ctx kern.Ctx, trk *tracker, buf mem.Buf) (units.Size, error) {
	c := s.Conn
	u := &trk.uio
	total := buf.Len
	// Map, pin and append "one socket buffer worth at a time" (Section
	// 4.4.1): one maximum-size segment per iteration.
	chunkMax := c.MaxSeg
	w := c.WriteChain()
	boundary := true
	for sent := units.Size(0); sent < total; {
		if err := c.WaitSndSpace(ctx.P); err != nil {
			s.unpinAll(ctx, u, trk.pinned)
			return sent, err
		}
		chunk := total - sent
		if avail := c.SndAvail(); chunk > avail {
			chunk = avail
		}
		if chunk > chunkMax {
			chunk = chunkMax
		}
		// Per-flow netmem admission before committing the chunk (see
		// writeCopy).
		c.AdmitSnd(ctx.P, chunk)
		// The socket layer, which has the application context OSF/1
		// drivers lack, maps the chunk into kernel space and pins it for
		// DMA (Section 4.4.1).
		s.K.WaitAlloc(ctx.P)
		s.VM.MapUIO(ctx, u, sent, chunk)
		s.VM.PinUIO(ctx, u, sent, chunk)
		trk.pinned = append(trk.pinned, mem.Iovec{Addr: sent, Len: chunk})
		trk.add(chunk)
		ctx.Charge(s.K.Mach.SocketPerPacket, kern.CatProto)
		// Map+pin is CPU work, but it never touches the payload bytes: a
		// plain cpu edge, not cpu-copy — the sender-side difference the
		// single-copy critical path exists to show. As in writeCopy, it is
		// the event Append links the chunk to.
		w.Ev(obs.CauseCPU, obs.EvSockPin, c.AppendStreamOff(), chunk)
		m := s.K.Mbufs.NewUIO(u, sent, chunk, trk.hdr(s.K.Led.NextDesc()))
		if err := c.Append(ctx, m, chunk, boundary); err != nil {
			trk.DMADone(chunk) // never issued
			s.unpinAll(ctx, u, trk.pinned)
			return sent, err
		}
		w.Ev(obs.CauseCPU, obs.EvSockAppend, c.AppendStreamOff(), chunk)
		boundary = false
		sent += chunk
	}
	// Copy semantics: return only after the last outstanding DMA
	// completes (Section 4.4.2). A DMA, once issued, cannot be canceled.
	if trk.pending > 0 {
		s.st.DMAWaitWakeups++
	}
	trk.wait(ctx.P)
	if c.Err != nil {
		// The connection died while DMAs were outstanding (adaptor reset,
		// RST): the teardown released the tracker, but the data was never
		// secured outboard. Surface the teardown error to the writer.
		s.unpinAll(ctx, u, trk.pinned)
		return total, c.Err
	}
	// The write returned once the last outstanding SDMA secured the data
	// outboard: the blocked span is DMA time.
	w.Ev(obs.CauseDMA, obs.EvWriteRet, c.AppendStreamOff(), total)
	s.unpinAll(ctx, u, trk.pinned)
	return total, nil
}

// unpinAll releases the pinned chunks (lazily if the VM is so configured).
func (s *Socket) unpinAll(ctx kern.Ctx, u *mem.UIO, pinned []mem.Iovec) {
	for _, r := range pinned {
		s.VM.UnpinUIO(ctx, u, r.Addr, r.Len)
		b := u.Buf.Slice(r.Addr, r.Len)
		s.VM.UnmapBuf(b.Space, b.Addr, b.Len)
	}
}

// Read receives into buf, blocking until at least one byte (or EOF) is
// available, BSD-style. It returns the byte count.
func (s *Socket) Read(p *sim.Proc, buf mem.Buf) (units.Size, error) {
	ctx := s.K.TaskCtx(p, s.Task).In("socket").WithFlow(int(s.Conn.LocalPort()))
	ctx.Charge(s.K.Mach.SyscallCost, kern.CatSyscall)
	c := s.Conn
	r := c.ReadChain()
	r.Ev(obs.CauseApp, obs.EvReadStart, c.RcvDequeued(), buf.Len)
	if !c.WaitRcvData(p) {
		if c.Err != nil {
			return 0, c.Err
		}
		return 0, ErrEOF
	}
	// Ledger attribution: the dequeued chain starts at the stream offset of
	// the bytes consumed so far; flows are keyed by the data sender's local
	// port, our peer.
	base := c.RcvDequeued()
	chain, n := c.DequeueRcv(buf.Len)
	if n == 0 {
		return 0, ErrEOF
	}
	err := s.copyOut(ctx.OnStream(int(c.RemotePort()), base), buf, chain, n, r, base)
	mbuf.FreeChain(chain)
	if err != nil {
		// The outboard data vanished mid-copy-out (adaptor reset); the
		// user buffer is undefined. Surface the connection's teardown
		// error when the stack has already swept it.
		if c.Err != nil {
			return 0, c.Err
		}
		return 0, err
	}
	// The message is in the application's buffer: a completion point the
	// critical-path analyzer back-walks from.
	r.Ev(obs.CauseCPU, obs.EvReadDone, base, n)
	r.MarkDone()
	c.WindowUpdate(ctx)
	return n, nil
}

// copyOut moves a dequeued chain into the user buffer buf: CPU copies for
// resident mbufs, SDMA for M_WCAB descriptors when the destination is
// word-aligned (the paper's receive-side single-copy; unaligned reads fall
// back to the copy path, Section 4.5). Its copy and DMA events go on the
// reader's causal chain r (nil for a datagram), labelled with the read's
// stream range [base, base+n).
func (s *Socket) copyOut(ctx kern.Ctx, buf mem.Buf, chain *mbuf.Mbuf, n units.Size, r *obs.Chain, base units.Size) error {
	trk := take(&s.rtrk, s.K.Eng, s.K.Mbufs, buf)
	defer park(&s.rtrk, trk)
	u := &trk.uio
	off := units.Size(0)
	sawDMA := false
	didCopy := false
	for m := chain; m != nil; m = m.Next() {
		ln := m.Len()
		switch m.Type() {
		case mbuf.TData, mbuf.TCluster:
			didCopy = true
			ctx.CopyToUIO(u, off, m.Bytes(), n)
		case mbuf.TWCAB:
			w := m.WCABRef()
			if w.Handle.Dead() {
				// The outboard packet was wiped by an adaptor reset after
				// the data was sequenced but before this read drained it.
				trk.fail(tcpip.ErrDeviceReset)
				off += ln
				continue
			}
			if s.Cfg.Mode == ModeSingleCopy && u.AlignedTo(off, ln, 4) {
				s.st.UIOReads++
				sawDMA = true
				s.VM.PinUIO(ctx, u, off, ln)
				trk.pinned = append(trk.pinned, mem.Iovec{Addr: off, Len: ln})
				trk.scatter = append(trk.scatter[:0], u.Buf.Slice(off, ln).Bytes())
				trk.add(ln)
				w.Handle.CopyOut(m.Off(), ln, trk.scatter, trk)
			} else {
				// Fallback: read outboard data with the CPU.
				s.st.CopyReads++
				didCopy = true
				ctx.CopyToUIO(u, off, w.Handle.Read(m.Off(), ln), n)
			}
		case mbuf.TUIO:
			panic("socket: M_UIO mbuf in receive buffer")
		}
		off += ln
	}
	if didCopy {
		r.Ev(obs.CauseCPUCopy, obs.EvReadCopy, base, n)
	}
	if sawDMA {
		// The last SDMA is flagged to interrupt so the process can be
		// rescheduled (Section 2.2).
		ctx.Charge(s.K.Mach.InterruptCost, kern.CatIntr)
		if trk.pending > 0 {
			s.st.DMAWaitWakeups++
		}
		trk.wait(ctx.P)
		// The read's outboard ranges landed in the user buffer by SDMA.
		r.Ev(obs.CauseDMA, obs.EvReadDMA, base, n)
		for _, iov := range trk.pinned {
			s.VM.UnpinUIO(ctx, u, iov.Addr, iov.Len)
		}
	}
	return trk.err
}

// WriteAll writes buf fully and returns an error only on connection
// failure.
func (s *Socket) WriteAll(p *sim.Proc, buf mem.Buf) error {
	_, err := s.Write(p, buf)
	return err
}

// Close closes the stream (half-close of the send side; full teardown
// proceeds via FIN exchange).
func (s *Socket) Close(p *sim.Proc) {
	s.Conn.Close(s.K.TaskCtx(p, s.Task).In("socket").WithFlow(int(s.Conn.LocalPort())))
}

// Dial establishes a TCP connection and wraps it in a socket.
func Dial(p *sim.Proc, k *kern.Kernel, vm *kern.VM, task *kern.Task, stk *tcpip.Stack,
	raddr wire.Addr, rport uint16, cfg Config) (*Socket, error) {
	ctx := k.TaskCtx(p, task).In("socket")
	conn, err := stk.Connect(ctx, raddr, rport)
	if err != nil {
		return nil, err
	}
	return NewSocket(k, vm, task, conn, cfg), nil
}

// Accept waits for an inbound connection on l and wraps it.
func Accept(p *sim.Proc, k *kern.Kernel, vm *kern.VM, task *kern.Task,
	l *tcpip.TCPListener, cfg Config) *Socket {
	conn := l.Accept(p)
	return NewSocket(k, vm, task, conn, cfg)
}
