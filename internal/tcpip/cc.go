package tcpip

import (
	"fmt"

	"repro/internal/units"
)

// Congestion control. The stack's original behavior is 4.3BSD-Reno vintage
// (tcpcong.go: slow start, congestion avoidance, halving on loss); DCTCP
// adds an estimator of the fraction of ECN-marked acknowledgements and
// cuts the window by it instead of waiting for loss. Both share every
// mechanism — duplicate-ACK counting, retransmission, RTT estimation, the
// loss and timeout cuts — and differ only where a connection's dctcp
// estimator is set: data segments go out ECN-capable, and a new
// acknowledgement feeds the estimator before the shared window growth,
// which a CE-echoing acknowledgement skips.

// Congestion-control algorithm names (Stack.CC).
const (
	CCReno  = "reno"
	CCDctcp = "dctcp"
)

// ValidCC reports whether name selects a known congestion-control
// algorithm ("" selects the default, Reno).
func ValidCC(name string) bool {
	switch name {
	case "", CCReno, CCDctcp:
		return true
	}
	return false
}

// newDCTCP returns the estimator for a connection on a stack whose CC field
// is name: nil for Reno. The name has been validated by the caller
// (ValidCC), so an unknown name is a programming error and never runs as
// Reno.
func newDCTCP(name string) *dctcp {
	switch name {
	case "", CCReno:
		return nil
	case CCDctcp:
		return &dctcp{alpha: dctcpAlphaScale}
	}
	panic(fmt.Sprintf("tcpip: unknown congestion control %q", name))
}

// halveOnLoss is the classic Reno cut, applied by both algorithms when
// real loss (not a mark) is detected: ssthresh to half the flight, floored
// at two segments.
func (c *TCPConn) halveOnLoss() {
	flight := seqDiff(c.sndNxt, c.sndUna)
	half := flight / 2
	if half < 2*c.MaxSeg {
		half = 2 * c.MaxSeg
	}
	c.ssthresh = half
}

// DCTCP estimator constants: alpha is a fixed-point fraction scaled by
// dctcpAlphaScale, updated once per congestion window with gain 1/16
// (g = 1/2^dctcpGainShift), as in the DCTCP paper.
const (
	dctcpAlphaScale int64 = 1024
	dctcpGainShift        = 4
)

// dctcp reacts to the *fraction* of CE-marked acknowledgements: a window
// with few marks is cut a little, a fully marked window is cut in half —
// instead of Reno's halving on every loss event. The fabric marks frames
// whose hop queue crossed its threshold (hippi.SetECN), so incast bursts
// are absorbed with shallow queues and no RTO-driven collapse.
type dctcp struct {
	alpha       int64 // marked fraction estimate, scaled by dctcpAlphaScale
	ackedBytes  int64 // bytes acked this observation window
	markedBytes int64 // of those, bytes whose ACK carried ECE
}

// onAck folds a new acknowledgement of acked bytes into the estimate and,
// once per window of acknowledged bytes, cuts c's window by alpha/2 if any
// were marked.
func (d *dctcp) onAck(c *TCPConn, acked units.Size, ece bool) {
	d.ackedBytes += int64(acked)
	if ece {
		d.markedBytes += int64(acked)
	}
	// One observation window ≈ one cwnd of acknowledged bytes.
	if d.ackedBytes >= int64(c.cwnd) && d.ackedBytes > 0 {
		f := d.markedBytes * dctcpAlphaScale / d.ackedBytes
		d.alpha += (f - d.alpha) >> dctcpGainShift
		if d.markedBytes > 0 {
			cut := units.Size(int64(c.cwnd) * d.alpha / (2 * dctcpAlphaScale))
			c.cwnd -= cut
			if c.cwnd < 2*c.MaxSeg {
				c.cwnd = 2 * c.MaxSeg
			}
			c.ssthresh = c.cwnd
		}
		d.ackedBytes, d.markedBytes = 0, 0
	}
}
