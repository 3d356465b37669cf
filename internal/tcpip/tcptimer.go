package tcpip

import (
	"repro/internal/kern"
	"repro/internal/obs"
	"repro/internal/obs/netobs"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// TCP timers. Timer expirations are hardware (clock) events; the handlers
// run in interrupt context via the kernel's interrupt daemon, like the
// softclock-driven tcp_slowtimo of the original stack.
//
// Each timer kind has a generation on the connection: arming or cancelling
// bumps it, and an expiry armed under an older generation does nothing.
// An armed timer is a tcpTimer record from the stack's free list, carrying
// the generation it was armed under. Both of its callbacks are bound once
// per record and kept across reuse, so arming allocates nothing; the
// record goes back to the list when its expiry finds it stale, or once its
// interrupt handler has run.

type timerKind uint8

const (
	timerRtx timerKind = iota
	timerPersist
	timerDelAck
	timerKeepAlive
)

// intrName is each timer's interrupt name.
var intrName = [...]string{"tcp-rtx", "tcp-persist", "tcp-delack", "tcp-keepalive"}

type tcpTimer struct {
	c    *TCPConn
	kind timerKind
	gen  int

	expire func()
	intr   func(*sim.Proc)
}

// gen returns the connection's generation counter for timer kind k.
func (c *TCPConn) gen(k timerKind) *int {
	switch k {
	case timerRtx:
		return &c.rtxGen
	case timerPersist:
		return &c.persistGen
	case timerDelAck:
		return &c.delAckGen
	default:
		return &c.kaGen
	}
}

// arm bumps timer k's generation and schedules its expiry after d.
func (c *TCPConn) arm(k timerKind, d units.Time) {
	g := c.gen(k)
	*g++
	t := c.stk.timers.Get()
	t.c, t.kind, t.gen = c, k, *g
	if t.expire == nil {
		t.expire, t.intr = t.onExpire, t.onIntr
	}
	c.stk.K.Eng.AfterKind(d, sim.KindTimer, t.expire)
}

// stale reports whether the timer was cancelled or re-armed since, or
// (except for the persist and delayed-ACK expiries, which post regardless)
// its connection closed.
func (t *tcpTimer) stale(inIntr bool) bool {
	c := t.c
	if t.gen != *c.gen(t.kind) {
		return true
	}
	if !inIntr && (t.kind == timerPersist || t.kind == timerDelAck) {
		return false
	}
	return c.state == StateClosed
}

// onExpire is the clock event: a live timer posts its handler.
func (t *tcpTimer) onExpire() {
	if t.stale(false) {
		t.c.stk.timers.Put(t)
		return
	}
	t.c.stk.K.PostIntr(intrName[t.kind], t.intr)
}

// onIntr is the timer's interrupt handler, under splnet.
func (t *tcpTimer) onIntr(p *sim.Proc) {
	c := t.c
	c.stk.Splnet(p)
	if !t.stale(true) {
		ctx := c.stk.K.IntrCtx(p).In("tcp_timer")
		switch t.kind {
		case timerRtx:
			c.rtxTimeout(ctx)
		case timerPersist:
			c.persistOn = false
			c.persistProbe(ctx)
		case timerDelAck:
			c.delAckTimeout(ctx)
		case timerKeepAlive:
			c.keepAliveTimeout(ctx)
		}
	}
	c.stk.Splx()
	c.stk.timers.Put(t)
}

// armRtx (re)starts the retransmission timer for the oldest outstanding
// data.
func (c *TCPConn) armRtx() {
	c.rtxArmed = true
	c.arm(timerRtx, c.rto)
}

// cancelRtx stops the retransmission timer.
func (c *TCPConn) cancelRtx() {
	c.rtxGen++
	c.rtxArmed = false
}

// rtxTimeout retransmits go-back-N from the last acknowledged byte with
// exponential backoff.
func (c *TCPConn) rtxTimeout(ctx kern.Ctx) {
	c.stk.ctrRtoFires.Inc()
	c.nobs.Rtx(netobs.RtxRTO)
	c.timerEv(obs.CauseRTO, obs.EvRTOFire)
	if c.userTimedOut() {
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.teardown(ErrConnTimeout)
		return
	}
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	switch c.state {
	case StateSynSent:
		c.sendControl(ctx, c.iss, wire.FlagSYN)
		c.armRtx()
	case StateSynRcvd:
		c.sendControl(ctx, c.iss, wire.FlagSYN|wire.FlagACK)
		c.armRtx()
	default:
		// Multiplicative decrease, then rewind and resend; the driver
		// retransmits M_WCAB data from network memory with a header-only
		// SDMA (Section 4.3).
		c.onRtxTimeout()
		c.sndNxt = c.sndUna
		c.finSent = false
		c.Output(ctx)
	}
	c.noteNetObs()
}

// armPersist starts the zero-window probe timer.
func (c *TCPConn) armPersist() {
	if c.persistOn || c.state == StateClosed {
		return
	}
	c.stk.ctrWindowStalls.Inc()
	c.persistOn = true
	c.arm(timerPersist, persistInterval)
}

// cancelPersist stops the probe timer.
func (c *TCPConn) cancelPersist() {
	c.persistGen++
	c.persistOn = false
}

// userTimedOut applies the optional user-timeout bound: with send data
// pending and no forward progress for userTimeout, the connection is torn
// down with ErrTimeout. Called from the retransmission and persist timers;
// reports true when the connection was torn down.
func (c *TCPConn) userTimedOut() bool {
	if c.userTimeout <= 0 {
		return false
	}
	pending := c.sndLen > 0 || c.finSent || c.state == StateSynSent || c.state == StateSynRcvd
	if !pending || c.stk.K.Eng.Now()-c.progressAt < c.userTimeout {
		return false
	}
	c.stk.Stats.TCPLivenessDrops++
	c.teardown(ErrTimeout)
	return true
}

// persistProbe forces one byte into a zero window so a lost window update
// cannot deadlock the connection.
func (c *TCPConn) persistProbe(ctx kern.Ctx) {
	c.timerEv(obs.CausePersist, obs.EvPersistProbe)
	if c.userTimedOut() {
		return
	}
	off := seqDiff(c.sndNxt, c.sndUna)
	if c.finSent && off > 0 {
		off--
	}
	avail := c.sndLen - off
	if avail == 0 || c.sndWnd > off {
		// Window opened (or nothing to probe with) in the meantime.
		c.Output(ctx)
		return
	}
	probe := units.Size(1)
	c.nobs.Rtx(netobs.RtxPersist)
	c.sendSegment(ctx, c.sndNxt, probe, wire.FlagACK)
	c.sndNxt += uint32(probe)
	if seqGT(c.sndNxt, c.sndMax) {
		c.sndMax = c.sndNxt
	}
	c.armRtx()
}

// armDelAck bounds how long an acknowledgement may be withheld.
func (c *TCPConn) armDelAck() { c.arm(timerDelAck, delAckTimeout) }

// delAckTimeout sends the withheld acknowledgement, if one still is.
func (c *TCPConn) delAckTimeout(ctx kern.Ctx) {
	if c.ackPending == 0 {
		return
	}
	c.ackNow = true
	// The ACK was withheld by the delayed-ACK policy; charge the wait since
	// the data that earned it arrived.
	c.trigger(c.critRcv, obs.CauseDelAck)
	c.Output(ctx)
}

// timerEv records a retransmission or persist timer firing as the trigger
// of the next Output: the dead time since the last forward progress (the
// previous ACK, or connection start) is charged to cause.
func (c *TCPConn) timerEv(cause obs.Cause, kind obs.EvKind) {
	c.trigger(c.critAck, obs.CauseCPU)
	c.trig.Ev(cause, kind, 0, 0)
}

// persistInterval is the zero-window probe period.
const persistInterval = 500 * units.Millisecond

// armKeepAlive schedules the next keepalive check: at the idle-threshold
// expiry when no probe is outstanding, or one probe interval ahead while
// probing. A no-op unless SetKeepAlive configured the connection.
func (c *TCPConn) armKeepAlive() {
	if c.kaIdle <= 0 || c.state == StateClosed {
		return
	}
	d := c.kaIntvl
	if c.kaProbes == 0 {
		if idle := c.stk.K.Eng.Now() - c.lastRcvd; idle < c.kaIdle {
			d = c.kaIdle - idle
		}
	}
	c.arm(timerKeepAlive, d)
}

// keepAliveTimeout probes an idle peer or declares it dead. The probe is a
// zero-length segment one sequence number below the receive window; an
// alive peer answers it with a bare ACK (segInput's below-window reply),
// which resets the probe count via lastRcvd.
func (c *TCPConn) keepAliveTimeout(ctx kern.Ctx) {
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateFinWait2 {
		// Handshake and final-teardown states: the retransmission timer
		// owns liveness there.
		c.armKeepAlive()
		return
	}
	if idle := c.stk.K.Eng.Now() - c.lastRcvd; idle < c.kaIdle {
		// The peer spoke since the timer was armed: back to idle watch.
		c.kaProbes = 0
		c.armKeepAlive()
		return
	}
	if c.kaProbes >= c.kaCount {
		c.stk.Stats.TCPLivenessDrops++
		c.teardown(ErrTimeout)
		return
	}
	c.kaProbes++
	c.stk.Stats.TCPKaProbes++
	c.nobs.Rtx(netobs.RtxKeepalive)
	c.sendControl(ctx, c.sndNxt-1, wire.FlagACK)
	c.armKeepAlive()
}
