package tcpip

import (
	"repro/internal/kern"
	"repro/internal/obs"
	"repro/internal/obs/netobs"
	"repro/internal/units"
	"repro/internal/wire"
)

// Congestion control and round-trip timing, as the Net2-era stack had
// them: Jacobson/Karels RTT estimation with Karn's rule, slow start and
// congestion avoidance, and fast retransmit on three duplicate
// acknowledgements (4.3BSD-Reno vintage). The experiments of Section 7 run
// on an uncongested two-host HIPPI fabric, so these mechanisms are
// invisible there (the window ramps to 512 KB within a few round trips);
// they matter for the loss-injection scenarios and for protocol fidelity.

const (
	// minRTO bounds the retransmission timer from below.
	minRTO = 50 * units.Millisecond
	// dupAckThreshold triggers fast retransmission.
	dupAckThreshold = 3
	// initialCwndSegs is the initial congestion window in segments.
	initialCwndSegs = 4
)

// initCong sets the initial congestion state once the MSS is known.
func (c *TCPConn) initCong() {
	c.cwnd = initialCwndSegs * c.MaxSeg
	c.ssthresh = c.SndLimit
	c.noteNetObs()
}

// sendWindow is the effective transmit window: the peer's advertised
// window gated by the congestion window.
func (c *TCPConn) sendWindow() units.Size {
	w := c.sndWnd
	if c.cwnd > 0 && c.cwnd < w {
		w = c.cwnd
	}
	return w
}

// startRTTSample arms a round-trip measurement on a freshly sent segment
// (never on a retransmission — Karn's rule).
func (c *TCPConn) startRTTSample(endSeq uint32) {
	if c.rttPending {
		return
	}
	c.rttPending = true
	c.rttSeq = endSeq
	c.rttStart = c.stk.K.Eng.Now()
}

// cancelRTTSample discards an in-flight measurement (retransmission
// ambiguity).
func (c *TCPConn) cancelRTTSample() { c.rttPending = false }

// takeRTTSample folds a completed measurement into srtt/rttvar and
// recomputes the RTO (RFC 6298 coefficients, which match the BSD
// implementation).
func (c *TCPConn) takeRTTSample(ack uint32) {
	if !c.rttPending || seqLT(ack, c.rttSeq) {
		return
	}
	c.rttPending = false
	sample := c.stk.K.Eng.Now() - c.rttStart
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rto = rto
}

// openCwnd grows the congestion window on a new acknowledgement: slow
// start below ssthresh, congestion avoidance above.
func (c *TCPConn) openCwnd(acked units.Size) {
	if c.cwnd == 0 {
		return
	}
	if c.cwnd < c.ssthresh {
		grow := acked
		if grow > c.MaxSeg {
			grow = c.MaxSeg
		}
		c.cwnd += grow
	} else {
		c.cwnd += c.MaxSeg * c.MaxSeg / c.cwnd
	}
	if c.cwnd > c.SndLimit {
		c.cwnd = c.SndLimit
	}
}

// onDupAck handles a duplicate acknowledgement, which arrived on span sp;
// at the threshold it fast retransmits the missing segment and halves the
// window.
func (c *TCPConn) onDupAck(ctx kern.Ctx, sp *obs.Span) {
	c.stk.Stats.TCPDupAcks++
	c.dupAcks++
	if c.dupAcks != dupAckThreshold {
		return
	}
	c.stk.Stats.TCPFastRetransmits++
	c.nobs.Rtx(netobs.RtxFast)
	c.halveOnLoss()
	c.cwnd = c.ssthresh
	c.cancelRTTSample()
	// Resend just the missing segment.
	seglen := c.sndLen
	if seglen > c.MaxSeg {
		seglen = c.MaxSeg
	}
	seglen = c.capAtBoundary(c.sndUna, seglen)
	if seglen > 0 {
		if sp != nil {
			// This acknowledgement is what resends the segment.
			c.trigger(sp.Cur(), obs.CauseAckClock)
		}
		c.sendSegment(ctx, c.sndUna, seglen, wire.FlagACK)
		c.armRtx()
	}
}

// onNewAck resets duplicate-ACK state and grows the window; ece reports
// whether the acknowledgement echoed a CE mark. Under DCTCP the estimator
// sees the acknowledgement first, and a marked one grows nothing.
func (c *TCPConn) onNewAck(acked units.Size, ece bool) {
	c.dupAcks = 0
	if c.dctcp != nil {
		c.dctcp.onAck(c, acked, ece)
		if ece {
			return
		}
	}
	c.openCwnd(acked)
}

// onRtxTimeout applies the multiplicative decrease for a timeout: the loss
// cut, and the window back to one segment.
func (c *TCPConn) onRtxTimeout() {
	c.halveOnLoss()
	if c.cwnd > 0 {
		c.cwnd = c.MaxSeg
	}
	c.cancelRTTSample()
}
