package critpath

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/units"
)

// fakeClock drives a CritRec through scripted instants.
type fakeClock struct{ t units.Time }

func (c *fakeClock) now() units.Time { return c.t }

// TestWalkTelescopes checks the analyzer's core invariant on a hand-built
// graph: per-cause attribution sums exactly to T(done) − T(root), the
// binding (latest) parent is on the path, and the loser shows up as a
// slack edge with the right slack.
func TestWalkTelescopes(t *testing.T) {
	clk := &fakeClock{}
	r := obs.NewCritRec(clk.now)
	hA, hB := r.Bind("A"), r.Bind("B")

	clk.t = 100
	root := r.Ev(0, obs.CauseApp, obs.EvWriteStart, hA, 1, 0, 64)
	clk.t = 250
	copyEv := r.Ev(root, obs.CauseCPUCopy, obs.EvSockCopy, hA, 1, 0, 64)
	clk.t = 400
	out := r.Ev(copyEv, obs.CauseCPU, obs.EvTCPOutput, hA, 1, 0, 64)
	// A competing dependency that finished earlier: the previous ACK.
	clk.t = 300
	ack := r.Ev(0, obs.CauseCPU, obs.EvAckIn, hA, 1, 0, 0)
	clk.t = 900
	wire := r.Ev(out, obs.CauseWire, obs.EvWireRx, hB, 1, 0, 64)
	clk.t = 1000
	done := r.EvJoin(wire, obs.CauseIntr, ack, obs.CauseAckClock, obs.EvReadDone, hB, 1, 0, 64)
	r.MarkDone(done)

	rep := Analyze(r)
	if len(rep.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(rep.Paths))
	}
	p := rep.Paths[0]
	if p.Total() != 900 {
		t.Fatalf("total = %v, want 900", p.Total())
	}
	var sum units.Time
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		sum += p.ByCause[c]
	}
	if sum != p.Total() {
		t.Fatalf("cause sum %v != total %v", sum, p.Total())
	}
	wantSteps := []string{"write_start", "sock_copy", "tcp_output", "wire_rx", "read_done"}
	if len(p.Steps) != len(wantSteps) {
		t.Fatalf("steps = %d, want %d", len(p.Steps), len(wantSteps))
	}
	for i, k := range wantSteps {
		if p.Steps[i].Kind != k {
			t.Errorf("step %d = %s, want %s", i, p.Steps[i].Kind, k)
		}
	}
	if p.ByCause[obs.CauseCPUCopy] != 150 || p.ByCause[obs.CauseWire] != 500 {
		t.Errorf("attribution: copy=%v wire=%v, want 150/500",
			p.ByCause[obs.CauseCPUCopy], p.ByCause[obs.CauseWire])
	}
	// ack (t=300) lost to wire (t=900): slack 600.
	if len(p.Slack) != 1 || p.Slack[0].FromKind != "ack_in" || p.Slack[0].Slack != 600 {
		t.Fatalf("slack = %+v, want ack_in with 600", p.Slack)
	}
}

// TestJoinBindsLater checks that EvJoin binds to the later parent and that
// a tie prefers the primary chain.
func TestJoinBindsLater(t *testing.T) {
	clk := &fakeClock{}
	r := obs.NewCritRec(clk.now)
	hA := r.Bind("A")
	clk.t = 10
	a := r.Ev(0, obs.CauseApp, obs.EvWriteStart, hA, 1, 0, 0)
	clk.t = 20
	b := r.Ev(0, obs.CauseApp, obs.EvAckIn, hA, 1, 0, 0)
	clk.t = 30
	j := r.EvJoin(a, obs.CauseCPU, b, obs.CauseQueue, obs.EvTCPOutput, hA, 1, 0, 0)
	if got := r.Events()[j-1]; got.Parent != b || got.Cause != obs.CauseQueue {
		t.Fatalf("join bound to %d/%v, want %d/queue", got.Parent, got.Cause, b)
	}
	// Tie: both parents at t=20 → p1 wins.
	clk.t = 20
	c := r.Ev(0, obs.CauseApp, obs.EvRcvWake, hA, 1, 0, 0)
	clk.t = 40
	j2 := r.EvJoin(b, obs.CauseCPU, c, obs.CauseQueue, obs.EvSndWake, hA, 1, 0, 0)
	if got := r.Events()[j2-1]; got.Parent != b || got.Cause != obs.CauseCPU {
		t.Fatalf("tie bound to %d/%v, want %d/cpu", got.Parent, got.Cause, b)
	}
	// Joining an event with itself records no self-slack edge.
	clk.t = 50
	j3 := r.EvJoin(j2, obs.CauseCPU, j2, obs.CauseQueue, obs.EvTxqPut, hA, 1, 0, 0)
	for _, alt := range r.Alts() {
		if alt.To == j3 {
			t.Fatalf("self-join recorded a slack edge: %+v", alt)
		}
	}
}

// TestNilRecorder checks the disabled path: nil recorder and nil report
// inputs are free no-ops.
func TestNilRecorder(t *testing.T) {
	var r *obs.CritRec
	hA := r.Bind("A")
	if id := r.Ev(0, obs.CauseApp, obs.EvWriteStart, hA, 1, 0, 0); id != 0 {
		t.Fatalf("nil Ev = %d, want 0", id)
	}
	if id := r.EvJoin(1, obs.CauseApp, 2, obs.CauseCPU, obs.EvWriteStart, hA, 1, 0, 0); id != 0 {
		t.Fatalf("nil EvJoin = %d, want 0", id)
	}
	r.MarkDone(3)
	rep := Analyze(r)
	if len(rep.Paths) != 0 {
		t.Fatalf("nil analyze: %d paths", len(rep.Paths))
	}
	var sb strings.Builder
	rep.WriteText(&sb, true)
	if !strings.Contains(sb.String(), "0 completed transfers") {
		t.Fatalf("empty report text: %q", sb.String())
	}
}

// TestZeroAllocDisabled pins the zero-cost claim: stamping through a nil
// recorder (telemetry off, or crit not enabled) allocates nothing.
func TestZeroAllocDisabled(t *testing.T) {
	var r *obs.CritRec
	hA := r.Bind("A")
	allocs := testing.AllocsPerRun(100, func() {
		id := r.Ev(0, obs.CauseApp, obs.EvWriteStart, hA, 1, 0, 64)
		r.EvJoin(id, obs.CauseApp, 0, obs.CauseCPU, obs.EvTCPOutput, hA, 1, 0, 64)
		r.MarkDone(id)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f/op, want 0", allocs)
	}
	var sp *obs.Span
	var ch obs.Chain
	allocs = testing.AllocsPerRun(100, func() {
		sp.CritEv(obs.CauseCPU, obs.EvTCPIn)
		sp.CritEvJoin(obs.CauseCPU, 0, obs.CauseQueue, obs.EvTCPOutput)
		ch.Seed(7)
		ch.Ev(obs.CauseApp, obs.EvWriteStart, 0, 64)
		ch.Join(obs.CauseApp, 7, obs.CauseCPU, obs.EvSndWake, 0, 64)
		ch.MarkDone()
	})
	if allocs != 0 {
		t.Fatalf("nil span or zero chain stamping allocates %.1f/op, want 0", allocs)
	}
	if ch.Cur() != 0 {
		t.Fatalf("zero chain cursor moved to %d", ch.Cur())
	}
}

// TestChromeExport sanity-checks the Perfetto export shape.
func TestChromeExport(t *testing.T) {
	clk := &fakeClock{}
	r := obs.NewCritRec(clk.now)
	hA, hB := r.Bind("A"), r.Bind("B")
	clk.t = 0
	a := r.Ev(0, obs.CauseApp, obs.EvWriteStart, hA, 1, 0, 8)
	clk.t = 1000
	b := r.Ev(a, obs.CauseWire, obs.EvReadDone, hB, 1, 0, 8)
	r.MarkDone(b)
	out := string(Analyze(r).ChromeJSON())
	for _, want := range []string{`"traceEvents"`, `"critpath/B"`, `"wire"`, `"done:read_done"`} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
}
