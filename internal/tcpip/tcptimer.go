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
// Like Net2's t_timer[], each timer kind is a fixed slot in the connection
// block. Arming schedules the connection's one expiry callback and records
// the expiry event's sequence number in the slot; cancelling clears it. An
// expiry is live when its sequence number is still the one its slot
// holds. The callbacks are bound once per connection, so arming allocates
// nothing, and a superseded expiry costs only its event.

type timerKind uint8

const (
	timerRtx timerKind = iota
	timerPersist
	timerDelAck
	timerKeepAlive
	numTimers
)

// timerSlot is one timer kind's state. armed is the sequence number of
// the live expiry event (0: not armed); posted is the armed value the last
// live expiry posted its handler under, and pending counts the handlers
// posted and not yet run. The interrupt queue is FIFO, so a slot's handlers
// run in post order and only the last can still find its arm current.
type timerSlot struct {
	armed, posted int64
	pending       int32
	intr          func(*sim.Proc)
}

// arm schedules timer k's expiry after d, superseding any earlier arm.
func (c *TCPConn) arm(k timerKind, d units.Time) {
	if c.onTimer == nil {
		c.onTimer = c.expire
	}
	eng := c.stk.K.Eng
	eng.AfterKind(d, sim.KindTimer, c.onTimer)
	c.timers[k].armed = eng.Seq()
}

// cancel stops timer k: its pending expiry and handler do nothing.
func (c *TCPConn) cancel(k timerKind) { c.timers[k].armed = 0 }

// expire is the clock event: the slot it was armed for, if any still
// holds it, posts its handler — except that the retransmission and
// keepalive expiries of a closed connection post nothing (the persist and
// delayed-ACK expiries post regardless; their handler then does nothing).
func (c *TCPConn) expire() {
	seq := c.stk.K.Eng.EventSeq()
	for k := range c.timers {
		s := &c.timers[k]
		if s.armed != seq {
			continue
		}
		kind := timerKind(k)
		if c.state == StateClosed && (kind == timerRtx || kind == timerKeepAlive) {
			return
		}
		if s.intr == nil {
			s.intr = func(p *sim.Proc) { c.timerIntr(p, kind) }
		}
		s.posted = s.armed
		s.pending++
		c.stk.K.PostIntr(s.intr)
		return
	}
}

// timerIntr is timer k's interrupt handler, under splnet. It acts only if
// it is the slot's last posted handler and nothing re-armed or cancelled
// the timer since it was posted.
func (c *TCPConn) timerIntr(p *sim.Proc, k timerKind) {
	c.stk.Splnet(p)
	s := &c.timers[k]
	if s.pending--; s.pending == 0 && s.armed == s.posted && c.state != StateClosed {
		ctx := c.stk.K.IntrCtx(p).In(obs.LayerTCPTimer)
		switch k {
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
}

// armRtx (re)starts the retransmission timer for the oldest outstanding
// data.
func (c *TCPConn) armRtx() { c.arm(timerRtx, c.rto) }

// cancelRtx stops the retransmission timer.
func (c *TCPConn) cancelRtx() { c.cancel(timerRtx) }

// rtxTimeout retransmits go-back-N from the last acknowledged byte with
// exponential backoff.
func (c *TCPConn) rtxTimeout(ctx kern.Ctx) {
	c.stk.Stats.TCPRtoFires++
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
	c.stk.Stats.TCPWindowStalls++
	c.persistOn = true
	c.arm(timerPersist, persistInterval)
}

// cancelPersist stops the probe timer.
func (c *TCPConn) cancelPersist() {
	c.cancel(timerPersist)
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
