package tcpip

import (
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/units"
)

// timerRig drives one timer kind of an established connection whose
// outgoing segments are all dropped, so nothing the handlers send comes
// back. Every arm also schedules, at the arm's expiry instant and after
// its expiry event, a probe interrupt: it queues behind whatever the
// expiry posted and records whether the handler acted since the last
// probe ('x') or not ('-').
type timerRig struct {
	r     *rig
	c     *TCPConn
	kind  timerKind
	posts int // the kernel's interrupt posts before the script ran
	saw   strings.Builder
	n     int // probes posted
	seen  int // the act count the last probe saw
}

// acts returns how many times the kind's handler has acted, from the
// effect only an acting handler has: the RTO handler counts a retry, the
// keepalive handler a probe; the persist handler clears persistOn and the
// delayed-ACK one sends the withheld ACK (or, on a closed connection,
// raises ackNow), both of which prime undoes after each probe.
func (h *timerRig) acts() int {
	c := h.c
	switch h.kind {
	case timerRtx:
		return c.retries
	case timerKeepAlive:
		return c.stk.Stats.TCPKaProbes
	case timerPersist:
		if !c.persistOn {
			return h.seen + 1
		}
	case timerDelAck:
		if c.ackNow || c.ackPending == 0 {
			return h.seen + 1
		}
	}
	return h.seen
}

// prime sets the state an acting persist or delayed-ACK handler changes.
func (h *timerRig) prime() {
	h.c.persistOn = true
	h.c.ackNow, h.c.ackPending = false, 1
}

func (h *timerRig) arm(d units.Time) {
	h.c.arm(h.kind, d)
	h.n++
	h.r.eng.After(d, func() {
		h.r.ka.PostIntr(func(*sim.Proc) {
			if a := h.acts(); a != h.seen {
				h.saw.WriteByte('x')
				h.seen = a
			} else {
				h.saw.WriteByte('-')
			}
			h.prime()
		})
	})
}

// cancel cancels the timer; persistOn, which cancelPersist clears too, is
// primed again.
func (h *timerRig) cancel() {
	if h.kind == timerRtx {
		h.c.cancelRtx()
	} else {
		h.c.cancelPersist()
	}
	h.prime()
}

// after runs fn d from now, behind every event already scheduled for
// that instant — an arm's expiry and probe included.
func (h *timerRig) after(d units.Time, fn func()) { h.r.eng.After(d, fn) }

// timerNames names each timer kind's subtests.
var timerNames = [numTimers]string{"tcp-rtx", "tcp-persist", "tcp-delack", "tcp-keepalive"}

// TestTimerSemantics pins what an expiry does for each TCP timer kind: a
// re-arm or cancel supersedes the earlier arm, also between an expiry
// posting its handler and the handler running (with two handlers of one
// kind pending at once), and on a closed connection the retransmission
// and keepalive expiries post nothing while the persist and delayed-ACK
// expiries post a handler that does nothing.
func TestTimerSemantics(t *testing.T) {
	const ms = units.Millisecond
	all := []timerKind{timerRtx, timerPersist, timerDelAck, timerKeepAlive}
	cancellable := []timerKind{timerRtx, timerPersist}
	cases := []struct {
		name   string
		kinds  []timerKind
		closed bool
		script func(h *timerRig)
		probes string // one byte per arm, in expiry order
		posts  int    // handlers posted, for the live kinds
	}{
		{"arm", all, false, func(h *timerRig) { h.arm(10 * ms) }, "x", 1},
		{"re-arm before expiry", all, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(5*ms, func() { h.arm(10 * ms) })
		}, "-x", 1},
		{"cancel before expiry", cancellable, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(5*ms, h.cancel)
		}, "-", 0},
		{"re-arm between post and run", all, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(10*ms, func() { h.arm(0) })
		}, "-x", 2},
		{"re-arm twice between post and run", all, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(10*ms, func() {
				h.arm(0)
				h.after(0, func() { h.arm(units.Microsecond) })
			})
		}, "--x", 3},
		{"cancel between post and run", cancellable, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(10*ms, h.cancel)
		}, "-", 1},
		{"re-arm and cancel between post and run", cancellable, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(10*ms, func() { h.arm(0); h.cancel() })
		}, "--", 1},
		{"cancel after a re-arm's post", cancellable, false, func(h *timerRig) {
			h.arm(10 * ms)
			h.after(10*ms, func() {
				h.arm(0)
				h.after(0, h.cancel)
			})
		}, "--", 2},
		{"closed", all, true, func(h *timerRig) { h.arm(10 * ms) }, "-", 1},
	}
	for _, tc := range cases {
		for _, k := range tc.kinds {
			t.Run(tc.name+"/"+timerNames[k], func(t *testing.T) {
				r, cli, _ := livenessPair(t, 61)
				defer r.eng.KillAll()
				r.ia.drop = func(int, []byte) bool { return true }
				h := &timerRig{r: r, c: cli, kind: k, posts: r.ka.IntrPosts}
				// A keepalive expiry finds the peer idle past the threshold
				// and probes; its own re-arm lies beyond the run.
				cli.kaIdle, cli.kaIntvl, cli.kaCount = units.Microsecond, 1000*units.Second, 100
				if tc.closed {
					cli.teardown(ErrConnClosed)
				}
				h.prime()
				h.seen = h.acts()
				tc.script(h)
				r.eng.RunUntil(r.eng.Now() + units.Second)
				if got := h.saw.String(); got != tc.probes {
					t.Errorf("probes saw %q, want %q", got, tc.probes)
				}
				posts := tc.posts
				if tc.closed && (k == timerRtx || k == timerKeepAlive) {
					posts = 0
				}
				if got := r.ka.IntrPosts - h.posts - h.n; got != posts {
					t.Errorf("%d handlers posted, want %d", got, posts)
				}
			})
		}
	}
}

// TestTimerArmAllocBudget pins arming and cancelling a timer at zero heap
// objects: the connection's timer slots hold the callbacks, and the
// engine's event heap, once grown, holds the pending expiries.
func TestTimerArmAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	r, cli, _ := livenessPair(t, 62)
	defer r.eng.KillAll()
	const runs = 1000
	for i := 0; i <= runs; i++ {
		cli.armRtx()
		cli.cancelRtx()
	}
	r.eng.Run() // the stale expiries leave the heap its size
	if n := testing.AllocsPerRun(runs, func() {
		cli.armRtx()
		cli.cancelRtx()
	}); n != 0 {
		t.Fatalf("re-arming and cancelling the RTO allocates %.1f objects, want 0", n)
	}
}
