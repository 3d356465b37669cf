package tcpip

import (
	"errors"
	"fmt"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/netif"
	"repro/internal/obs"
	"repro/internal/obs/netobs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// TCPState is a TCP connection state.
type TCPState int

// Connection states (a pragmatic subset of RFC 793: simultaneous open and
// TIME_WAIT are not modeled; connections free immediately after the final
// ACK).
const (
	StateClosed TCPState = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
)

var stateNames = []string{
	"Closed", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "LastAck",
}

func (s TCPState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("TCPState(%d)", int(s))
}

// Sequence arithmetic (modular 32-bit).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }

// seqDiff returns a-b as a size; a must not precede b.
func seqDiff(a, b uint32) units.Size {
	d := int32(a - b)
	if d < 0 {
		panic(fmt.Sprintf("tcpip: negative sequence span %d", d))
	}
	return units.Size(d)
}

// Default transport parameters.
const (
	// DefaultWindow is the experiment configuration's socket buffer /
	// window size: 512 KBytes (Section 7.1).
	DefaultWindow = 512 * units.KB
	// baseRTO is the initial retransmission timeout.
	baseRTO = 200 * units.Millisecond
	// maxRTO caps exponential backoff.
	maxRTO = 2 * units.Second
	// maxRetries before the connection errors out.
	maxRetries = 10
	// delAckThreshold acknowledges every Nth segment.
	delAckThreshold = 2
	// delAckTimeout bounds how long an ACK may be delayed.
	delAckTimeout = 100 * units.Millisecond
)

// ErrConnTimeout is reported when retransmission gives up.
var ErrConnTimeout = errors.New("tcpip: connection timed out")

// ErrConnClosed is reported for operations on a closed connection.
var ErrConnClosed = errors.New("tcpip: connection closed")

// ErrConnReset is reported when the peer resets the connection.
var ErrConnReset = errors.New("tcpip: connection reset by peer")

// ErrTimeout is reported when TCP liveness — keepalive probing or the
// user-timeout — declares the peer unreachable. Distinct from
// ErrConnTimeout (retransmission exhaustion) so callers can tell "the
// network ate my data for too long" from "the peer stopped answering
// liveness checks".
var ErrTimeout = errors.New("tcpip: peer liveness timeout")

// ErrDeviceReset is reported when the route's network adaptor reset while
// the connection had state resident on it — netmem-backed send or receive
// data (M_WCAB) whose pages the firmware reset wiped. The data is
// unrecoverable (the paper's single-copy path keeps the only copy
// outboard), so the connection dies rather than retransmit zeroed pages.
var ErrDeviceReset = errors.New("tcpip: network device reset")

// sndStamp records one Append: the send-buffer bytes up to (but excluding)
// endSeq were enqueued at t, made sendable by the writer's causal event ev
// (0 when the critical-path recorder is off).
type sndStamp struct {
	endSeq uint32
	ev     int32
	t      units.Time
}

// reassSeg is an out-of-order segment held for reassembly.
type reassSeg struct {
	seq   uint32
	len   units.Size
	chain *mbuf.Mbuf
	fin   bool
}

// TCPConn is one TCP connection endpoint.
type TCPConn struct {
	stk   *Stack
	key   connKey
	state TCPState

	// MaxSeg is the maximum segment (payload) size, derived from the
	// route MTU at establishment.
	MaxSeg units.Size
	// SndLimit and RcvLimit are the socket buffer sizes; RcvLimit is the
	// offered window.
	SndLimit, RcvLimit units.Size

	// NoCoalesce prevents segments from spanning write boundaries,
	// matching the paper's measured single-copy configuration ("does not
	// coalesce the M_UIO mbufs generated by multiple writes into a
	// single packet", Section 7.2).
	NoCoalesce bool
	boundaries []uint32 // write-start sequence numbers (NoCoalesce)

	// sndStamps records each Append, so a fresh segment's data-path span
	// can begin at enqueue time (the "socket" stage) and its tcp_output
	// event hang off the writer's. Only maintained when telemetry is
	// enabled; a ring, so that appending and acknowledging stop
	// allocating once it reaches the window's depth.
	sndStamps sim.FIFO[sndStamp]

	// Causal chains (no-ops unless the critical-path recorder is enabled):
	// the socket writer's and reader's, and trig, why the next Output runs
	// (append, ACK arrival, window open, RTO, persist, delayed-ACK release,
	// read), with trigC the cause the segments it cuts bind under. critAck
	// is the last new-data ack_in event (the sender's ACK clock), critRcv
	// the last data-arrival event on the receive side.
	wr, rd, trig     obs.Chain
	trigC            obs.Cause
	critAck, critRcv int32

	// Send state. sndBuf holds unacknowledged + unsent data as a chain of
	// regular, M_UIO, or M_WCAB mbufs; sndUna/sndNxt index into it.
	iss            uint32
	sndUna, sndNxt uint32
	// sndMax is the highest sequence ever sent; after a retransmission
	// rewind, acknowledgements up to sndMax remain valid.
	sndMax       uint32
	finSent      bool
	sndWnd       units.Size
	wl1, wl2     uint32 // window update bookkeeping
	sndBuf       *mbuf.Mbuf
	sndLen       units.Size
	sndSpaceSig  *sim.Signal
	closePending bool

	// Receive state.
	rcvNxt        uint32
	rcvBuf        *mbuf.Mbuf
	rcvLen        units.Size
	rcvDeq        units.Size // cumulative stream bytes dequeued by the app
	rcvDataSig    *sim.Signal
	rcvAdvertised units.Size
	peerFin       bool // FIN consumed: EOF after rcvBuf drains
	reass         []reassSeg

	// ACK policy.
	ackPending int
	ackNow     bool

	// Retransmission.
	rto       units.Time
	retries   int
	persistOn bool

	// Timers (tcptimer.go): one slot per kind, and the expiry callback
	// they share, bound on first use.
	timers  [numTimers]timerSlot
	onTimer func()

	// Liveness (tcptimer.go). All zero means disabled — the default — so
	// fault-free runs keep their baseline timing exactly. kaIdle/kaIntvl/
	// kaCount configure keepalive probing; userTimeout bounds how long
	// pending send data may go without forward progress.
	kaIdle, kaIntvl units.Time
	kaCount         int
	kaProbes        int        // consecutive unanswered keepalive probes
	lastRcvd        units.Time // vtime of the last segment from the peer
	userTimeout     units.Time
	progressAt      units.Time // vtime of the last send-side forward progress

	// Congestion control and RTT estimation (tcpcong.go, cc.go). dctcp
	// is the DCTCP estimator, chosen by the stack's CC field at
	// connection creation (nil for Reno); ceSeen latches an arriving CE
	// mark until the next outgoing segment echoes it (FlagECE).
	dctcp          *dctcp
	ceSeen         bool
	cwnd, ssthresh units.Size
	dupAcks        int
	srtt, rttvar   units.Time
	rttPending     bool
	rttSeq         uint32
	rttStart       units.Time

	establishedSig *sim.Signal
	Err            error

	listener *TCPListener // set while handshaking on the passive side

	// adm is the route interface's per-flow staging admitter (the CAB
	// netmem arbiter), cached when the route is resolved; nil when the
	// device has no arbitration.
	adm netif.Admitter

	// nobs records this connection's congestion-state series for the
	// transport-dynamics observatory; nil (a no-op) when netobs is off.
	nobs *netobs.FlowRec
}

func (s *Stack) newConn(key connKey) *TCPConn {
	c := &TCPConn{
		stk:            s,
		key:            key,
		state:          StateClosed,
		MaxSeg:         8 * units.KB,
		SndLimit:       DefaultWindow,
		RcvLimit:       DefaultWindow,
		rto:            baseRTO,
		sndSpaceSig:    sim.NewSignal(s.K.Eng),
		rcvDataSig:     sim.NewSignal(s.K.Eng),
		establishedSig: sim.NewSignal(s.K.Eng),
		lastRcvd:       s.K.Eng.Now(),
		progressAt:     s.K.Eng.Now(),
	}
	c.dctcp = newDCTCP(s.CC)
	c.nobs = s.nrec.Flow(s.K.Name, s.nnode, int(key.lport), int(key.rport))
	// Flows are keyed by the data sender's local port: ours for what we
	// write, the peer's for what we read.
	c.wr = s.tr.Chain(s.K.Name, int(key.lport))
	c.trig = s.tr.Chain(s.K.Name, int(key.lport))
	c.rd = s.tr.Chain(s.K.Name, int(key.rport))
	s.conns[key] = c
	return c
}

// State returns the connection state.
func (c *TCPConn) State() TCPState { return c.state }

// noteQueues samples the host-wide queue/window gauges for the time-series
// sampler. No-op (nil gauges) when telemetry is disabled.
func (c *TCPConn) noteQueues() {
	c.stk.gSndQ.Set(int64(c.sndLen))
	c.stk.gRcvQ.Set(int64(c.rcvLen))
	c.stk.gSndWnd.Set(int64(c.sndWnd))
}

// noteNetObs samples the connection's congestion state for the
// transport-dynamics series. The recorder dedups unchanged state, so this
// is called from every site that may have moved it (ACK processing,
// output, timer fires). No-op (nil nobs) when netobs is disabled.
func (c *TCPConn) noteNetObs() {
	if c.nobs == nil {
		return
	}
	c.nobs.Note(netobs.FlowState{
		Cwnd:     int64(c.cwnd),
		Ssthresh: int64(c.ssthresh),
		SrttNs:   int64(c.srtt),
		RttvarNs: int64(c.rttvar),
		RtoNs:    int64(c.rto),
		Flight:   int64(seqDiff(c.sndNxt, c.sndUna)),
		SndWnd:   int64(c.sndWnd),
		RcvWnd:   int64(c.rcvAdvertised),
	})
}

// LocalPort returns the local port.
func (c *TCPConn) LocalPort() uint16 { return c.key.lport }

// RemotePort returns the peer port (the data-flow id on the receive side:
// flows are keyed by the data sender's local port).
func (c *TCPConn) RemotePort() uint16 { return c.key.rport }

// AppendStreamOff returns the stream offset (data byte 0 = first payload
// byte) the next Append lands at, for data-touch ledger attribution.
func (c *TCPConn) AppendStreamOff() units.Size {
	if c.sndUna == c.iss {
		// Handshake not yet sequenced locally: nothing enqueued before it.
		return c.sndLen
	}
	return seqDiff(c.sndUna, c.iss) - 1 + c.sndLen
}

// RcvDequeued returns the cumulative stream bytes already consumed by the
// application — the stream offset of the next DequeueRcv.
func (c *TCPConn) RcvDequeued() units.Size { return c.rcvDeq }

// WriteChain returns the causal chain of the connection's writer; the
// socket records its write events on it.
func (c *TCPConn) WriteChain() *obs.Chain { return &c.wr }

// ReadChain returns the causal chain of the connection's reader.
func (c *TCPConn) ReadChain() *obs.Chain { return &c.rd }

// trigger records why the next Output runs: segments it cuts bind to
// event id under cause.
func (c *TCPConn) trigger(id int32, cause obs.Cause) {
	c.trig.Seed(id)
	c.trigC = cause
}

// setMaxSeg derives the segment size from the route MTU and caches the
// route's netmem admitter (if the device arbitrates staging per flow).
func (c *TCPConn) setMaxSeg() {
	_, mtu := c.stk.RouteCaps(c.key.raddr)
	c.MaxSeg = mtu - wire.IPHdrLen - wire.TCPHdrLen
	if r, err := c.stk.Routes.Lookup(c.key.raddr); err == nil {
		if a, ok := r.If.(netif.Admitter); ok {
			c.adm = a
		}
	}
	c.initCong()
}

// AdmitSnd applies the device's per-flow netmem admission control for n
// payload bytes about to be appended, blocking p while the flow is over
// its share. A no-op when the route's device does not arbitrate. Callers
// must not hold splnet.
func (c *TCPConn) AdmitSnd(p *sim.Proc, n units.Size) {
	if c.adm == nil || n <= 0 {
		return
	}
	t0 := c.stk.K.Eng.Now()
	c.adm.AdmitTx(p, int(c.key.lport), n+wire.IPHdrLen+wire.TCPHdrLen)
	if c.stk.K.Eng.Now() > t0 {
		c.wr.Ev(obs.CauseNetmem, obs.EvSndAdmit, c.AppendStreamOff(), n)
	}
}

// Connect performs an active open to raddr:rport and blocks until the
// connection is established (or fails).
func (s *Stack) Connect(ctx kern.Ctx, raddr wire.Addr, rport uint16) (*TCPConn, error) {
	s.Splnet(ctx.P)
	lport, err := s.ephemeralPort()
	if err != nil {
		s.Splx()
		return nil, err
	}
	key := connKey{raddr: raddr, lport: lport, rport: rport}
	c := s.newConn(key)
	c.setMaxSeg()
	c.iss = s.K.Eng.Rand().Uint32()
	c.sndUna, c.sndNxt = c.iss, c.iss
	c.state = StateSynSent
	c.sendControl(ctx, c.sndNxt, wire.FlagSYN)
	c.sndNxt++ // SYN occupies one sequence number
	c.sndMax = c.sndNxt
	c.armRtx()
	s.Splx()
	for c.state != StateEstablished && c.Err == nil {
		c.establishedSig.Wait(ctx.P)
	}
	if c.Err != nil {
		return nil, c.Err
	}
	return c, nil
}

// DefaultBacklog is the accept-backlog bound applied by Listen: the
// maximum of half-open (SYN received) plus established-but-unaccepted
// connections held for the listener. SYNs beyond it are dropped
// deterministically (counted in tcp.listen_overflow) and recovered by the
// peer's SYN retransmission once the backlog drains.
const DefaultBacklog = 128

// TCPListener accepts passive opens on a port.
type TCPListener struct {
	stk     *Stack
	port    uint16
	backlog *sim.Queue[*TCPConn]
	limit   int
	pending int // connections in SynRcvd owned by this listener
}

// Listen starts accepting connections on port with the default backlog.
func (s *Stack) Listen(port uint16) *TCPListener {
	return s.ListenBacklog(port, DefaultBacklog)
}

// ListenBacklog is Listen with an explicit backlog bound.
func (s *Stack) ListenBacklog(port uint16, limit int) *TCPListener {
	if limit < 1 {
		limit = 1
	}
	l := &TCPListener{stk: s, port: port, backlog: sim.NewQueue[*TCPConn](s.K.Eng), limit: limit}
	s.listeners[port] = l
	return l
}

// Backlogged returns the half-open plus unaccepted connection count
// (diagnostics and tests).
func (l *TCPListener) Backlogged() int { return l.pending + l.backlog.Len() }

// Accept blocks until an established connection is available.
func (l *TCPListener) Accept(p *sim.Proc) *TCPConn {
	return l.backlog.Get(p)
}

// --- Send-side API (used by the socket layer) ---

// SndAvail returns free space in the send buffer.
func (c *TCPConn) SndAvail() units.Size {
	if c.sndLen >= c.SndLimit {
		return 0
	}
	return c.SndLimit - c.sndLen
}

// WaitSndSpace blocks until send-buffer space is available or the
// connection dies.
func (c *TCPConn) WaitSndSpace(p *sim.Proc) error {
	t0 := c.stk.K.Eng.Now()
	for c.SndAvail() == 0 && c.Err == nil && c.canSendData() {
		c.sndSpaceSig.Wait(p)
	}
	if c.Err != nil {
		return c.Err
	}
	if !c.canSendData() {
		return ErrConnClosed
	}
	if c.stk.K.Eng.Now() > t0 {
		// Send-buffer space frees on acknowledgement, so the stall binds
		// to the peer's ACK clock; the writer's own chain survives as a
		// slack edge.
		c.wr.Join(obs.CauseApp, c.critAck, obs.CauseAckClock, obs.EvSndWake, c.AppendStreamOff(), 0)
	}
	return nil
}

func (c *TCPConn) canSendData() bool {
	return (c.state == StateEstablished || c.state == StateCloseWait) && !c.closePending
}

// Append adds an n-byte chain (of any mbuf formats) to the send buffer and
// drives output. boundary marks the start of a new application write so a
// NoCoalesce connection will not let a segment span it. The caller has
// verified space with SndAvail.
func (c *TCPConn) Append(ctx kern.Ctx, m *mbuf.Mbuf, n units.Size, boundary bool) error {
	if !c.canSendData() {
		mbuf.FreeChain(m)
		if c.Err != nil {
			return c.Err
		}
		return ErrConnClosed
	}
	if got := mbuf.ChainLen(m); got != n {
		panic(fmt.Sprintf("tcpip: append length mismatch %v != %v", got, n))
	}
	c.stk.Splnet(ctx.P)
	defer c.stk.Splx()
	if !c.canSendData() {
		// The connection died while this append waited for the network
		// lock (device reset, inbound RST): the chain must not land on the
		// closed connection's buffer — teardown has already swept it, so
		// nothing would ever release the chain's descriptor owner and the
		// writer would wait forever.
		mbuf.FreeChain(m)
		if c.Err != nil {
			return c.Err
		}
		return ErrConnClosed
	}
	if c.NoCoalesce && boundary {
		c.boundaries = append(c.boundaries, c.sndUna+uint32(c.sndLen))
	}
	if c.sndLen == 0 {
		// The user-timeout clock measures stalled pending data; it starts
		// when the buffer goes non-empty, not at the last (possibly
		// long-ago) acknowledgement.
		c.progressAt = c.stk.K.Eng.Now()
	}
	c.sndBuf = mbuf.Cat(c.sndBuf, m)
	c.sndLen += n
	c.noteQueues()
	// The writer's latest event (its enqueue) made these bytes sendable,
	// and this Output runs because it appended them: a CPU trigger.
	c.stampAppend()
	c.trigger(c.wr.Cur(), obs.CauseCPU)
	c.Output(ctx)
	return nil
}

// stampAppend records the stamp of the append that just enqueued the
// send buffer's last bytes, when telemetry is on.
func (c *TCPConn) stampAppend() {
	if c.stk.tr != nil {
		c.sndStamps.Push(sndStamp{endSeq: c.sndUna + uint32(c.sndLen), ev: c.wr.Cur(), t: c.stk.K.Eng.Now()})
	}
}

// stampAt returns the stamp of the append that enqueued the byte at seq
// (ok is false when there is none: telemetry is off). Stamps are dropped
// only once their bytes are acknowledged, so a go-back-N retransmission
// still finds its own bytes' stamp.
func (c *TCPConn) stampAt(seq uint32) (st sndStamp, ok bool) {
	for c.sndStamps.Len() > 0 && !seqGT(c.sndStamps.Peek().endSeq, c.sndUna) {
		c.sndStamps.Pop()
	}
	for i := 0; i < c.sndStamps.Len(); i++ {
		if st := c.sndStamps.At(i); seqGT(st.endSeq, seq) {
			return st, true
		}
	}
	return sndStamp{}, false
}

// capAtBoundary limits a segment starting at seq to not cross the next
// write boundary.
func (c *TCPConn) capAtBoundary(seq uint32, seglen units.Size) units.Size {
	if !c.NoCoalesce {
		return seglen
	}
	// Prune stale boundaries.
	keep := c.boundaries[:0]
	for _, b := range c.boundaries {
		if seqGT(b, c.sndUna) {
			keep = append(keep, b)
		}
	}
	c.boundaries = keep
	for _, b := range c.boundaries {
		if seqGT(b, seq) && seqDiff(b, seq) < seglen {
			seglen = seqDiff(b, seq)
		}
	}
	return seglen
}

// --- Receive-side API ---

// WaitRcvData blocks until data is available; it returns false at EOF
// (peer FIN consumed and buffer drained) or on error.
func (c *TCPConn) WaitRcvData(p *sim.Proc) bool {
	for c.rcvLen == 0 && !c.peerFin && c.Err == nil && c.state != StateClosed {
		c.rcvDataSig.Wait(p)
	}
	if c.rcvLen == 0 {
		return false
	}
	// The reader proceeds once data is queued: if it slept, the wakeup
	// binds to the segment-arrival event that signaled it (a scheduling
	// edge); if data was already waiting, the arrival survives as the
	// slack edge and the reader's own chain binds.
	c.rd.Join(obs.CauseApp, c.critRcv, obs.CauseSched, obs.EvRcvWake, c.rcvDeq, 0)
	return true
}

// DequeueRcv removes up to max bytes from the receive buffer, returning
// the chain and its length. The caller copies the data out and then calls
// WindowUpdate.
func (c *TCPConn) DequeueRcv(max units.Size) (*mbuf.Mbuf, units.Size) {
	n := c.rcvLen
	if n > max {
		n = max
	}
	if n == 0 {
		return nil, 0
	}
	head, rest := mbuf.SplitAt(c.rcvBuf, n)
	c.rcvBuf = rest
	c.rcvLen -= n
	c.rcvDeq += n
	c.noteQueues()
	return head, n
}

// RTO returns the connection's current retransmission timeout, exposed so
// recovery tests can observe backoff and its reset on forward progress.
func (c *TCPConn) RTO() units.Time { return c.rto }

// rcvSpace is the window we can offer: socket-buffer headroom, as in BSD
// (out-of-order data held for reassembly does not shrink the advertised
// window, so duplicate ACKs carry a stable window and the sender's
// fast-retransmit heuristic works).
func (c *TCPConn) rcvSpace() units.Size {
	if c.rcvLen >= c.RcvLimit {
		return 0
	}
	return c.RcvLimit - c.rcvLen
}

// WindowUpdate sends a window-update ACK if draining the receive buffer
// opened the window significantly (≥ 2 segments or half the buffer —
// silly-window avoidance).
func (c *TCPConn) WindowUpdate(ctx kern.Ctx) {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	opened := c.rcvSpace() - c.rcvAdvertised
	if opened >= 2*c.MaxSeg || (opened > 0 && opened >= c.RcvLimit/2) {
		c.stk.Splnet(ctx.P)
		c.ackNow = true
		// The window-update ACK exists because the reader drained the
		// buffer: it binds to the reader's latest event.
		c.trigger(c.rd.Cur(), obs.CauseCPU)
		c.Output(ctx)
		c.stk.Splx()
	}
}

// Close half-closes the send side: a FIN follows the buffered data. It
// does not block; the connection is fully torn down once State reports
// StateClosed.
func (c *TCPConn) Close(ctx kern.Ctx) {
	c.stk.Splnet(ctx.P)
	defer c.stk.Splx()
	switch c.state {
	case StateEstablished:
		c.closePending = true
		c.state = StateFinWait1
	case StateCloseWait:
		c.closePending = true
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.teardown(nil)
		return
	default:
		return
	}
	c.Output(ctx)
}

// teardown finalizes the connection with err (nil for orderly close).
func (c *TCPConn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	if err != nil {
		c.Err = err
	}
	if c.listener != nil {
		// Died while half-open on the passive side: release its backlog slot.
		c.listener.pending--
		c.listener = nil
	}
	c.cancelRtx()
	c.cancelPersist()
	c.cancel(timerKeepAlive)
	delete(c.stk.conns, c.key)
	if c.Err != nil {
		// An errored connection delivers nothing more to the application
		// (the reader surfaces c.Err): drop undelivered receive data now.
		// The chain may hold M_WCAB references to pinned netmem pages —
		// leaving it attached leaked those pages forever on abortive
		// teardown. An orderly close (err == nil) keeps rcvBuf: the app is
		// still entitled to drain data that arrived before the FIN.
		mbuf.FreeChain(c.rcvBuf)
		c.rcvBuf, c.rcvLen = nil, 0
	}
	// Writers blocked on outstanding DMAs must not hang: release their
	// descriptors' owners before dropping the buffer. Segment copies
	// queued at the driver share these headers; marking them abandoned
	// tells the transmit daemon to drop those packets rather than DMA
	// from pages the released writer will unpin.
	mbuf.AbandonOwners(c.sndBuf)
	mbuf.FreeChain(c.sndBuf)
	c.sndBuf, c.sndLen = nil, 0
	for _, seg := range c.reass {
		mbuf.FreeChain(seg.chain)
	}
	c.reass = nil
	c.establishedSig.Broadcast()
	c.rcvDataSig.Broadcast()
	c.sndSpaceSig.Broadcast()
}

// Abort drops the connection immediately, sending a RST to the peer (the
// SO_LINGER-0 close).
func (c *TCPConn) Abort(ctx kern.Ctx) {
	if c.state == StateClosed {
		return
	}
	c.stk.Splnet(ctx.P)
	defer c.stk.Splx()
	if c.state == StateSynSent {
		// The peer may already hold a half-open (SYN-RECEIVED) connection
		// for our SYN, with rcvNxt == our iss+1 == sndNxt; a bare RST at
		// sndNxt resets it immediately instead of leaving it to burn a
		// backlog slot retransmitting SYN|ACK until its timer gives up. No
		// ACK flag: we never saw the peer's SYN, so we have no valid
		// acknowledgement to offer (and a listener that never created
		// state just ignores the RST).
		c.sendControl(ctx, c.sndNxt, wire.FlagRST)
	} else {
		c.sendControl(ctx, c.sndNxt, wire.FlagRST|wire.FlagACK)
	}
	c.stk.Stats.TCPRstsOut++
	c.teardown(ErrConnClosed)
}

// SetKeepAlive enables keepalive probing: once nothing has been received
// for idle, a zero-length probe (one sequence number below the window, so
// the peer answers with a bare ACK) is sent every intvl; count consecutive
// unanswered probes tear the connection down with ErrTimeout. Off by
// default — fault-free runs keep baseline timing. Zero/negative arguments
// disable probing.
func (c *TCPConn) SetKeepAlive(p *sim.Proc, idle, intvl units.Time, count int) {
	c.stk.Splnet(p)
	defer c.stk.Splx()
	c.cancel(timerKeepAlive) // armKeepAlive re-arms
	if idle <= 0 || intvl <= 0 || count <= 0 {
		c.kaIdle, c.kaIntvl, c.kaCount = 0, 0, 0
		return
	}
	c.kaIdle, c.kaIntvl, c.kaCount = idle, intvl, count
	c.kaProbes = 0
	c.lastRcvd = c.stk.K.Eng.Now()
	c.armKeepAlive()
}

// SetUserTimeout bounds how long pending send data may go without forward
// progress (a new acknowledgement) before the connection is torn down with
// ErrTimeout. Checked when the retransmission and persist timers fire, so
// the bound is met within one timer period. Zero (the default) disables
// the bound: retransmission backs off to maxRetries as before.
func (c *TCPConn) SetUserTimeout(d units.Time) {
	if d < 0 {
		d = 0
	}
	c.userTimeout = d
}

// hasOutboardState reports whether the connection holds data whose only
// copy lives in adaptor network memory: M_WCAB mbufs in the send buffer,
// the receive buffer, or held reassembly segments.
func (c *TCPConn) hasOutboardState() bool {
	for m := c.sndBuf; m != nil; m = m.Next() {
		if m.Type() == mbuf.TWCAB {
			return true
		}
	}
	for m := c.rcvBuf; m != nil; m = m.Next() {
		if m.Type() == mbuf.TWCAB {
			return true
		}
	}
	for _, seg := range c.reass {
		for m := seg.chain; m != nil; m = m.Next() {
			if m.Type() == mbuf.TWCAB {
				return true
			}
		}
	}
	return false
}

// DeviceReset is the driver's notification that the adaptor behind ifc
// underwent a firmware reset that wiped network memory. Connections routed
// over ifc whose only copy of some data was outboard (M_WCAB) are torn
// down with ErrDeviceReset — retransmitting would resend wiped pages as
// zeros. Connections with all data in host memory (M_UIO awaiting staging,
// regular mbufs, or simply idle) survive: retransmission re-stages from
// host memory once the driver has re-armed receive. Runs in interrupt
// context. Victims are torn down in connection-key order, because each
// teardown wakes writers and frees pages.
func (s *Stack) DeviceReset(ctx kern.Ctx, ifc netif.Interface) {
	s.Splnet(ctx.P)
	defer s.Splx()
	var victims []*TCPConn
	for _, c := range s.Conns() {
		r, err := s.Routes.Lookup(c.key.raddr)
		if err != nil || r.If != ifc {
			continue
		}
		if c.hasOutboardState() {
			victims = append(victims, c)
		}
	}
	for _, c := range victims {
		s.Stats.TCPDeviceResets++
		c.teardown(ErrDeviceReset)
	}
	// UDP has no retransmission to hide behind: a queued datagram whose
	// payload sat outboard now reads back as zeros. Drop those datagrams —
	// a clean UDP loss — rather than deliver wiped bytes to the
	// application. Live datagrams (host-resident, or outboard on another
	// adaptor) stay queued.
	for _, u := range s.udpSocks() {
		kept := u.rcvQ[:0]
		for _, d := range u.rcvQ {
			if chainDead(d.Chain) {
				s.Stats.UDPDevResetDrops++
				u.rcvLen -= d.Len
				mbuf.FreeChain(d.Chain)
				continue
			}
			kept = append(kept, d)
		}
		u.rcvQ = kept
	}
}

// chainDead reports whether any mbuf in the chain references outboard data
// that no longer exists (its adaptor's firmware was reset).
func chainDead(m *mbuf.Mbuf) bool {
	for ; m != nil; m = m.Next() {
		if m.Type() == mbuf.TWCAB && m.WCABRef().Handle.Dead() {
			return true
		}
	}
	return false
}
