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
	// AlignMinWrite is the smallest write the alignment optimization
	// applies to (default 64 KB).
	AlignMinWrite units.Size
}

// Socket is a connected stream (TCP) socket.
type Socket struct {
	K    *kern.Kernel
	VM   *kern.VM
	Task *kern.Task
	Conn *tcpip.TCPConn
	Cfg  Config

	// Stats.
	UIOWrites, CopyWrites int
	UIOReads, CopyReads   int
	// AlignedWrites counts misaligned writes salvaged by the Section 4.5
	// short-first-packet optimization.
	AlignedWrites int

	// Telemetry counters (shared across sockets on the same host through
	// the registry; nil when telemetry is disabled).
	ctrUIOWrites, ctrCopyWrites   *obs.Counter
	ctrUIOReads, ctrCopyReads     *obs.Counter
	ctrAlignedWrites, ctrDMAWaits *obs.Counter

	// Causal critical-path recorder (nil unless enabled) and the writer and
	// reader happens-before chain cursors: each recorded event's binding
	// parent is the previous event on its chain, so the gap between them is
	// attributed to the edge's cause class.
	crit       *obs.CritRec
	critHost   string
	wCur, rCur int32

	// The writer's and the reader's trackers, parked between system calls
	// (see take).
	wtrk, rtrk *tracker
}

// NewSocket wraps an established connection.
func NewSocket(k *kern.Kernel, vm *kern.VM, task *kern.Task, conn *tcpip.TCPConn, cfg Config) *Socket {
	s := &Socket{K: k, VM: vm, Task: task, Conn: conn, Cfg: cfg}
	if cfg.Mode == ModeSingleCopy {
		conn.NoCoalesce = true
	}
	if r := k.Obs; r != nil {
		s.ctrUIOWrites = r.Counter("socket.uio_writes")
		s.ctrCopyWrites = r.Counter("socket.copy_writes")
		s.ctrUIOReads = r.Counter("socket.uio_reads")
		s.ctrCopyReads = r.Counter("socket.copy_reads")
		s.ctrAlignedWrites = r.Counter("socket.aligned_writes")
		s.ctrDMAWaits = r.Counter("socket.dma_wait_wakeups")
		s.crit = r.TraceSink().Crit()
		s.critHost = r.Host()
	}
	return s
}

// critEv appends one event to the writer or reader causal chain.
func (s *Socket) critEv(parent int32, cause obs.Cause, kind string, flow int, off, n units.Size) int32 {
	return s.crit.Ev(parent, cause, kind, s.critHost, flow, int64(off), int64(n))
}

// critNow samples virtual time for stall detection (0 when the recorder is
// off, so disabled runs skip the clock reads entirely).
func (s *Socket) critNow() units.Time {
	if s.crit == nil {
		return 0
	}
	return s.K.Eng.Now()
}

// critSndWake records the writer's wakeup from a send-space stall entered
// at t0 (no event when the wait never blocked). Send-buffer space frees on
// acknowledgement, so the stall binds to the peer's ACK clock; the writer's
// own chain survives as a slack edge.
func (s *Socket) critSndWake(t0 units.Time) {
	if s.crit == nil || s.K.Eng.Now() <= t0 {
		return
	}
	c := s.Conn
	s.wCur = s.crit.EvJoin(s.wCur, obs.CauseApp, c.CritAckEv(), obs.CauseAckClock,
		"snd_wake", s.critHost, int(c.LocalPort()), int64(c.AppendStreamOff()), 0)
}

// critSndAdmit records a netmem-arbiter admission stall entered at t0.
func (s *Socket) critSndAdmit(t0 units.Time, chunk units.Size) {
	if s.crit == nil || s.K.Eng.Now() <= t0 {
		return
	}
	c := s.Conn
	s.wCur = s.critEv(s.wCur, obs.CauseNetmem, "snd_admit",
		int(c.LocalPort()), c.AppendStreamOff(), chunk)
}

// tracker is the outstanding-DMA (UIO) counter that synchronizes
// application wakeup with the driver (Section 4.4.2), with the rest of one
// system call's DMA bookkeeping: the first copy-out error and the ranges
// pinned for the DMAs. A socket keeps one per direction and reuses it
// across system calls.
type tracker struct {
	pending units.Size
	err     error
	sig     *sim.Signal
	pinned  []mem.Iovec // UIO ranges to unpin when the call ends
	scatter [][]byte    // one copy-out's destination segments
}

func newTracker(e *sim.Engine) *tracker { return &tracker{sig: sim.NewSignal(e)} }

// take hands a system call the tracker parked in *slot, or a fresh one
// when the slot is empty: on first use, or while another call on the same
// socket holds it.
func take(slot **tracker, e *sim.Engine) *tracker {
	t := *slot
	if t == nil {
		return newTracker(e)
	}
	*slot = nil
	return t
}

// park returns t to *slot for the next system call — unless DMAs it
// counted are still outstanding (a call abandoned by a connection error),
// since their late completions must not land on the next call's count.
func park(slot **tracker, t *tracker) {
	if t.pending != 0 {
		return
	}
	t.err = nil
	t.pinned = t.pinned[:0]
	*slot = t
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

// DMAStarted implements mbuf.Notifier.
func (t *tracker) DMAStarted(units.Size) {}

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
	if s.crit != nil {
		// The gap since the writer's previous event is the application's
		// own time (or, for the first write, the chain root).
		s.wCur = s.critEv(s.wCur, obs.CauseApp, "write_start",
			int(s.Conn.LocalPort()), s.Conn.AppendStreamOff(), buf.Len)
	}

	u := mem.NewUIO(buf)
	aligned := u.AlignedTo(0, buf.Len, 4) // word alignment (Section 4.5)
	useUIO := s.Cfg.Mode == ModeSingleCopy &&
		buf.Len >= s.Cfg.UIOThreshold &&
		aligned
	if useUIO {
		s.UIOWrites++
		s.ctrUIOWrites.Inc()
		return s.writeUIO(ctx, u, buf)
	}
	if !aligned && s.alignable(buf) {
		// Section 4.5 extension: peel off a short misaligned prefix via
		// the copy path; the remainder is word-aligned and takes the
		// single-copy path.
		prefix := 4 - buf.Addr%4
		s.AlignedWrites++
		s.ctrAlignedWrites.Inc()
		n1, err := s.writeCopy(ctx, u, buf.Slice(0, prefix))
		if err != nil {
			return n1, err
		}
		rest := buf.Slice(prefix, buf.Len-prefix)
		n2, err := s.writeUIO(ctx, mem.NewUIO(rest), rest)
		return n1 + n2, err
	}
	s.CopyWrites++
	s.ctrCopyWrites.Inc()
	return s.writeCopy(ctx, u, buf)
}

// alignable reports whether the alignment optimization applies to buf.
func (s *Socket) alignable(buf mem.Buf) bool {
	if s.Cfg.Mode != ModeSingleCopy || !s.Cfg.AlignFirstPacket {
		return false
	}
	min := s.Cfg.AlignMinWrite
	if min == 0 {
		min = 64 * units.KB
	}
	return buf.Len >= min && buf.Len >= s.Cfg.UIOThreshold
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
	boundary := true
	for sent := units.Size(0); sent < total; {
		t0 := s.critNow()
		if err := c.WaitSndSpace(ctx.P); err != nil {
			return sent, err
		}
		s.critSndWake(t0)
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
		t0 = s.critNow()
		c.AdmitSnd(ctx.P, chunk)
		s.critSndAdmit(t0, chunk)
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
		if s.crit != nil {
			// The chunk's bytes became sendable when the CPU finished
			// copying them into kernel clusters: a data-touching CPU edge.
			s.wCur = s.critEv(s.wCur, obs.CauseCPUCopy, "sock_copy",
				int(c.LocalPort()), c.AppendStreamOff(), chunk)
			head.SetCritEv(s.wCur)
		}
		if err := c.Append(ctx, head, chunk, boundary); err != nil {
			return sent, err
		}
		if s.crit != nil {
			s.wCur = s.critEv(s.wCur, obs.CauseCPU, "sock_append",
				int(c.LocalPort()), c.AppendStreamOff(), chunk)
		}
		boundary = false
		sent += chunk
	}
	return total, nil
}

// writeUIO is the single-copy sosend: map and pin incrementally, append
// M_UIO descriptors, and wait for the outstanding DMAs.
func (s *Socket) writeUIO(ctx kern.Ctx, u *mem.UIO, buf mem.Buf) (units.Size, error) {
	c := s.Conn
	total := buf.Len
	// Map, pin and append "one socket buffer worth at a time" (Section
	// 4.4.1): one maximum-size segment per iteration.
	chunkMax := c.MaxSeg
	trk := take(&s.wtrk, s.K.Eng)
	defer park(&s.wtrk, trk)
	boundary := true
	for sent := units.Size(0); sent < total; {
		t0 := s.critNow()
		if err := c.WaitSndSpace(ctx.P); err != nil {
			s.unpinAll(ctx, u, trk.pinned)
			return sent, err
		}
		s.critSndWake(t0)
		chunk := total - sent
		if avail := c.SndAvail(); chunk > avail {
			chunk = avail
		}
		if chunk > chunkMax {
			chunk = chunkMax
		}
		// Per-flow netmem admission before committing the chunk (see
		// writeCopy).
		t0 = s.critNow()
		c.AdmitSnd(ctx.P, chunk)
		s.critSndAdmit(t0, chunk)
		// The socket layer, which has the application context OSF/1
		// drivers lack, maps the chunk into kernel space and pins it for
		// DMA (Section 4.4.1).
		s.K.WaitAlloc(ctx.P)
		s.VM.MapUIO(ctx, u, sent, chunk)
		s.VM.PinUIO(ctx, u, sent, chunk)
		trk.pinned = append(trk.pinned, mem.Iovec{Addr: sent, Len: chunk})
		trk.add(chunk)
		ctx.Charge(s.K.Mach.SocketPerPacket, kern.CatProto)
		if s.crit != nil {
			// Map+pin is CPU work, but it never touches the payload bytes:
			// a plain cpu edge, not cpu-copy — the sender-side difference
			// the single-copy critical path exists to show.
			s.wCur = s.critEv(s.wCur, obs.CauseCPU, "sock_pin",
				int(c.LocalPort()), c.AppendStreamOff(), chunk)
		}
		m := s.K.Mbufs.NewUIO(u, sent, chunk, &mbuf.Hdr{Owner: trk, DescID: s.K.Led.NextDesc(), CritEv: s.wCur})
		if err := c.Append(ctx, m, chunk, boundary); err != nil {
			trk.DMADone(chunk) // never issued
			s.unpinAll(ctx, u, trk.pinned)
			return sent, err
		}
		if s.crit != nil {
			s.wCur = s.critEv(s.wCur, obs.CauseCPU, "sock_append",
				int(c.LocalPort()), c.AppendStreamOff(), chunk)
		}
		boundary = false
		sent += chunk
	}
	// Copy semantics: return only after the last outstanding DMA
	// completes (Section 4.4.2). A DMA, once issued, cannot be canceled.
	if trk.pending > 0 {
		s.ctrDMAWaits.Inc()
	}
	trk.wait(ctx.P)
	if c.Err != nil {
		// The connection died while DMAs were outstanding (adaptor reset,
		// RST): the teardown released the tracker, but the data was never
		// secured outboard. Surface the teardown error to the writer.
		s.unpinAll(ctx, u, trk.pinned)
		return total, c.Err
	}
	if s.crit != nil {
		// The write returned once the last outstanding SDMA secured the
		// data outboard: the blocked span is DMA time.
		s.wCur = s.critEv(s.wCur, obs.CauseDMA, "write_ret",
			int(c.LocalPort()), c.AppendStreamOff(), total)
	}
	s.unpinAll(ctx, u, trk.pinned)
	return total, nil
}

// unpinAll releases the pinned chunks (lazily if the VM is so configured).
func (s *Socket) unpinAll(ctx kern.Ctx, u *mem.UIO, pinned []mem.Iovec) {
	for _, r := range pinned {
		s.VM.UnpinUIO(ctx, u, r.Addr, r.Len)
		var sb mem.SegBuf
		for _, seg := range u.Segments(r.Addr, r.Len, sb[:0]) {
			s.VM.UnmapBuf(u.Space, seg.Addr, seg.Len)
		}
	}
}

// Read receives into buf, blocking until at least one byte (or EOF) is
// available, BSD-style. It returns the byte count.
func (s *Socket) Read(p *sim.Proc, buf mem.Buf) (units.Size, error) {
	ctx := s.K.TaskCtx(p, s.Task).In("socket").WithFlow(int(s.Conn.LocalPort()))
	ctx.Charge(s.K.Mach.SyscallCost, kern.CatSyscall)
	c := s.Conn
	if s.crit != nil {
		s.rCur = s.critEv(s.rCur, obs.CauseApp, "read_start",
			int(c.RemotePort()), c.RcvDequeued(), buf.Len)
	}
	if !c.WaitRcvData(p) {
		if c.Err != nil {
			return 0, c.Err
		}
		return 0, ErrEOF
	}
	if s.crit != nil {
		// The reader proceeds once data is queued: if it slept, the wakeup
		// binds to the segment-arrival event that signaled it (a scheduling
		// edge); if data was already waiting, the arrival survives as the
		// slack edge and the reader's own chain binds.
		s.rCur = s.crit.EvJoin(s.rCur, obs.CauseApp, c.CritRcvEv(), obs.CauseSched,
			"rcv_wake", s.critHost, int(c.RemotePort()), int64(c.RcvDequeued()), 0)
	}
	// Ledger attribution: the dequeued chain starts at the stream offset of
	// the bytes consumed so far; flows are keyed by the data sender's local
	// port, our peer.
	base := c.RcvDequeued()
	chain, n := c.DequeueRcv(buf.Len)
	if n == 0 {
		return 0, ErrEOF
	}
	u := mem.NewUIO(buf)
	err := s.copyOut(ctx.OnStream(int(c.RemotePort()), base), u, chain, n)
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
	if s.crit != nil {
		// The message is in the application's buffer: a completion point
		// the critical-path analyzer back-walks from.
		s.rCur = s.critEv(s.rCur, obs.CauseCPU, "read_done",
			int(c.RemotePort()), base, n)
		s.crit.MarkDone(s.rCur)
		c.SetCritRdEv(s.rCur)
	}
	c.WindowUpdate(ctx)
	return n, nil
}

// copyOut moves a dequeued chain into the user buffer: CPU copies for
// resident mbufs, SDMA for M_WCAB descriptors when the destination is
// word-aligned (the paper's receive-side single-copy; unaligned reads fall
// back to the copy path, Section 4.5).
func (s *Socket) copyOut(ctx kern.Ctx, u *mem.UIO, chain *mbuf.Mbuf, n units.Size) error {
	trk := take(&s.rtrk, s.K.Eng)
	defer park(&s.rtrk, trk)
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
				s.UIOReads++
				s.ctrUIOReads.Inc()
				sawDMA = true
				s.VM.PinUIO(ctx, u, off, ln)
				trk.pinned = append(trk.pinned, mem.Iovec{Addr: off, Len: ln})
				scatter := trk.scatter[:0]
				var sb mem.SegBuf
				for _, seg := range u.Segments(off, ln, sb[:0]) {
					scatter = append(scatter, u.Space.Bytes(seg.Addr, seg.Len))
				}
				trk.scatter = scatter
				trk.add(ln)
				w.Handle.CopyOut(m.Off(), ln, scatter, trk)
			} else {
				// Fallback: read outboard data with the CPU.
				s.CopyReads++
				s.ctrCopyReads.Inc()
				didCopy = true
				ctx.CopyToUIO(u, off, w.Handle.Read(m.Off(), ln), n)
			}
		case mbuf.TUIO:
			panic("socket: M_UIO mbuf in receive buffer")
		}
		off += ln
	}
	if didCopy && s.crit != nil {
		s.rCur = s.critEv(s.rCur, obs.CauseCPUCopy, "read_copy",
			int(s.Conn.RemotePort()), 0, n)
	}
	if sawDMA {
		// The last SDMA is flagged to interrupt so the process can be
		// rescheduled (Section 2.2).
		ctx.Charge(s.K.Mach.InterruptCost, kern.CatIntr)
		if trk.pending > 0 {
			s.ctrDMAWaits.Inc()
		}
		trk.wait(ctx.P)
		if s.crit != nil {
			// The read's outboard ranges landed in the user buffer by SDMA.
			s.rCur = s.critEv(s.rCur, obs.CauseDMA, "read_dma",
				int(s.Conn.RemotePort()), 0, n)
		}
		for _, r := range trk.pinned {
			s.VM.UnpinUIO(ctx, u, r.Addr, r.Len)
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
