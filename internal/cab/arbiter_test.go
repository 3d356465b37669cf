package cab

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// arbRig is testRig plus an arbiter with reclaim effectively disabled, so
// share-math tests aren't raced by the idle sweep.
func arbRig(cfg ArbConfig) (*sim.Engine, *CAB, *Arbiter) {
	e, _, a, _ := testRig()
	if cfg.IdleExpiry == 0 {
		cfg.IdleExpiry = units.Second
	}
	return e, a, NewArbiter(a, cfg)
}

func TestArbShareMath(t *testing.T) {
	e, c, a := arbRig(ArbConfig{MinSharePages: 2})
	defer e.KillAll()
	total := c.TotalPages()

	// A lone flow owns the whole memory.
	a.touch(1)
	if got := a.Share(1); got != total {
		t.Fatalf("lone share = %d, want %d", got, total)
	}
	// Two equal flows split it.
	a.touch(2)
	if got := a.Share(1); got != total/2 {
		t.Fatalf("equal share = %d, want %d", got, total/2)
	}
	// A third flow takes an equal third, rounded down.
	a.touch(3)
	if got := a.Share(2); got != total/3 {
		t.Fatalf("three-way share = %d, want %d", got, total/3)
	}
	// MinSharePages floors the share no matter how crowded.
	for f := 4; f < 4+4*total; f++ {
		a.touch(f)
	}
	if got := a.Share(2); got != 2 {
		t.Fatalf("crowded share = %d, want MinSharePages floor 2", got)
	}
	// Inactive flows have no share.
	if got := a.Share(9999); got != 0 {
		t.Fatalf("unknown flow share = %d, want 0", got)
	}
}

func TestArbFlowKey(t *testing.T) {
	if got := FlowKey(2, 10001); got != 2<<16|10001 {
		t.Fatalf("FlowKey(2,10001) = %#x", got)
	}
	// Same port from different senders must land in different accounts.
	if FlowKey(2, 10001) == FlowKey(3, 10001) {
		t.Fatal("FlowKey collides across nodes")
	}
	// Port 0 is unattributed control traffic: stays flow 0 (exempt).
	if got := FlowKey(7, 0); got != 0 {
		t.Fatalf("FlowKey(7,0) = %d, want 0", got)
	}
}

func TestArbRxAdmitAndBorrow(t *testing.T) {
	e, c, a := arbRig(ArbConfig{MinSharePages: 1, BorrowHeadroomPages: 2})
	defer e.KillAll()
	ps := c.Cfg.PageSize
	total := c.TotalPages()

	// Flow 0 is always admitted.
	if !a.rxAdmit(0, units.Size(total)*ps) {
		t.Fatal("flow 0 must be exempt")
	}

	// The sequence runs inside one proc at t=0, before the idle-reclaim
	// sweep can deactivate anything.
	e.Go("seq", func(p *sim.Proc) {
		a.touch(1)
		a.touch(2)
		share := a.Share(1) // total/2

		// Within share: admitted without borrowing.
		if !a.rxAdmit(1, units.Size(share)*ps) {
			t.Error("within-share admission denied")
		}
		if c.Stats.ArbBorrows != 0 {
			t.Error("within-share admission counted as borrow")
		}

		// Push flow 1 to its share, then go over: granted only as a
		// borrow while the free pool keeps BorrowHeadroomPages of slack.
		a.AdmitTx(p, 1, units.Size(share)*ps)
		if !a.rxAdmit(1, ps) {
			t.Error("over-share borrow denied with a nearly free pool")
		}
		if c.Stats.ArbBorrows != 1 {
			t.Errorf("borrows = %d, want 1", c.Stats.ArbBorrows)
		}

		// Drain the free pool to exactly the headroom: borrowing must
		// stop (an over-share borrow of one page would dip below it).
		pk, ok := c.AllocPacket(units.Size(total-2) * ps)
		if !ok {
			t.Error("pool drain alloc failed")
			return
		}
		defer pk.Free()
		if a.rxAdmit(1, ps) {
			t.Error("over-share borrow granted below headroom")
		}
		// An under-share flow is still admitted: the policy only gates,
		// the physical pool is enforced by AllocPacket.
		if !a.rxAdmit(2, ps) {
			t.Error("under-share admission denied by borrow rules")
		}
	})
	e.Run()
}

func TestArbAdmitTxBlocksAndWakes(t *testing.T) {
	// Borrowing disabled (headroom = whole memory): admission beyond the
	// share must queue until pages flow back.
	e, c, a := arbRig(ArbConfig{MinSharePages: 1, BorrowHeadroomPages: 1 << 20})
	defer e.KillAll()
	ps := c.Cfg.PageSize

	var wokeAt units.Time
	const freeAt = 50 * units.Microsecond
	e.Go("writer", func(p *sim.Proc) {
		a.touch(1)
		a.touch(2) // second active flow halves the share
		share := a.Share(1)
		// Fill the share and land the allocation.
		a.AdmitTx(p, 1, units.Size(share)*ps)
		pk, ok := c.AllocPacketFlow(units.Size(share)*ps, 1)
		if !ok {
			t.Error("share-sized alloc failed")
			return
		}
		e.At(freeAt, func() { pk.Free() })
		// One page over: must block until the packet is freed.
		a.AdmitTx(p, 1, ps)
		wokeAt = p.Now()
	})
	e.Run()

	if c.Stats.ArbWaits != 1 {
		t.Fatalf("waits = %d, want 1", c.Stats.ArbWaits)
	}
	if wokeAt != freeAt {
		t.Fatalf("waiter woke at %v, want %v (the free)", wokeAt, freeAt)
	}
}

func TestArbIdleReclaim(t *testing.T) {
	e, c, a := arbRig(ArbConfig{IdleExpiry: units.Millisecond})
	defer e.KillAll()
	ps := c.Cfg.PageSize

	// Two flows allocate and free at t=0, then go idle.
	for f := 1; f <= 2; f++ {
		pk, ok := c.AllocPacketFlow(ps, f)
		if !ok {
			t.Fatal("alloc failed")
		}
		pk.Free()
	}
	if a.ActiveFlows() != 2 {
		t.Fatalf("active = %d, want 2", a.ActiveFlows())
	}
	e.Run()
	// The idle sweep reclaimed both registrations...
	if a.ActiveFlows() != 0 {
		t.Fatalf("active after expiry = %d, want 0", a.ActiveFlows())
	}
	if c.Stats.ArbReclaims != 2 {
		t.Fatalf("reclaims = %d, want 2", c.Stats.ArbReclaims)
	}
	// ...so a newcomer owns the whole memory again.
	a.touch(5)
	if got := a.Share(5); got != c.TotalPages() {
		t.Fatalf("post-reclaim share = %d, want %d", got, c.TotalPages())
	}
}

// TestArbReclaimLiveness pins the reclaim timer's termination contract: an
// account that still holds pages (e.g. reassembly data stranded by a dead
// peer) must NOT keep the timer re-arming forever — that would keep the
// event loop alive and hang every Engine.Run for good. The test passes by
// returning: a regression turns it into a test-timeout hang.
func TestArbReclaimLiveness(t *testing.T) {
	e, c, a := arbRig(ArbConfig{IdleExpiry: units.Millisecond})
	defer e.KillAll()
	pk, ok := c.AllocPacketFlow(c.Cfg.PageSize, 1)
	if !ok {
		t.Fatal("alloc failed")
	}
	e.Run() // must drain even though flow 1 never frees

	if a.ActiveFlows() != 1 || a.Held(1) == 0 {
		t.Fatal("page-holding account was reclaimed")
	}
	// When the account finally drains, freeNotify re-arms the sweep and
	// the registration is reclaimed on the next expiry.
	pk.Free()
	e.Run()
	if a.ActiveFlows() != 0 {
		t.Fatalf("active after drain+expiry = %d, want 0", a.ActiveFlows())
	}
}

// TestResetWakesWaitersInAllocationOrder: a firmware reset frees every
// live packet, and each free may grant a blocked AdmitTx. Six flows each
// hold their full share and wait for one page more; the reset must wake
// them in packet allocation order on every run, not in map order.
func TestResetWakesWaitersInAllocationOrder(t *testing.T) {
	const flows = 6
	want := []int{1, 2, 3, 4, 5, 6}
	for run := 0; run < 20; run++ {
		e, c, a := arbRig(ArbConfig{MinSharePages: 1, BorrowHeadroomPages: 1 << 20})
		ps := c.Cfg.PageSize
		var woke []int
		e.Go("setup", func(p *sim.Proc) {
			for f := 1; f <= flows; f++ {
				a.touch(f)
			}
			share := units.Size(a.Share(1)) * ps
			for f := 1; f <= flows; f++ {
				a.AdmitTx(p, f, share)
				if _, ok := c.AllocPacketFlow(share, f); !ok {
					t.Error("share-sized alloc failed")
					return
				}
			}
			for f := 1; f <= flows; f++ {
				e.Go("writer", func(p *sim.Proc) {
					a.AdmitTx(p, f, ps)
					woke = append(woke, f)
				})
			}
		})
		e.At(units.Millisecond, c.Reset)
		e.Run()
		e.KillAll()
		if c.Stats.ArbWaits != flows {
			t.Fatalf("run %d: waits = %d, want %d", run, c.Stats.ArbWaits, flows)
		}
		if !slices.Equal(woke, want) {
			t.Fatalf("run %d: writers woke in order %v, want %v", run, woke, want)
		}
	}
}
