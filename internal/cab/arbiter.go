// Netmem arbiter: per-flow accounting of network-memory pages with
// equal elastic quotas, so one elephant flow cannot monopolize the
// adaptor's outboard buffering (the seed policy is first-come global, and
// the rx hold queue only bounds the receive side).
//
// Policy. Each active flow f has a share
//
//	share(f) = max(MinSharePages, totalPages/active)
//
// where active is the number of flows currently holding a share.
//
// A flow may allocate freely while its usage (pages held in network memory
// plus pages admitted but not yet staged) stays within its share; beyond
// the share it may *borrow* from slack only while at least
// BorrowHeadroomPages would remain free and no other flow is queued
// waiting for admission. Transmit admission happens above the driver (the
// socket layer calls AdmitTx before appending to the send buffer), so the
// single per-host transmit daemon never blocks on an over-share flow;
// receive admission gates the staging allocation in the per-flow hold
// queues (mdma.go). Admission waiters are served FIFO; only the head of
// the queue holds the borrow privilege, so under-share flows cannot be
// overtaken by a borrower. Flow 0 (control traffic: bare ACKs, fragments)
// is exempt — small control frames must keep flowing or window/ACK clocks
// stall — which together with MinSharePages makes the policy
// deadlock-free: every flow can always stage at least one packet's worth.
//
// Shares are elastic: Σ share may exceed the memory (MinSharePages
// overcommit); the global free-page pool, enforced by AllocPacket, remains
// the hard limit, and a fully subscribed adaptor degrades every flow
// toward stop-and-wait rather than starving any of them.
//
// Reclaim. A flow that holds no pages and has not allocated for
// IdleExpiry of virtual time is deactivated on a lazy periodic sweep: it
// leaves the share denominator, so the memory flows back to the live flows
// without explicit teardown.
package cab

import (
	"repro/internal/sim"
	"repro/internal/units"
)

// ArbConfig parameterizes the netmem arbiter. Zero values select the
// defaults noted on each field.
type ArbConfig struct {
	// MinSharePages is the floor of any active flow's share: enough pages
	// to stage one maximum-size packet (default 5 = 40KB at the default
	// 8KB page, covering a 32KB MTU packet plus headers).
	MinSharePages int
	// BorrowHeadroomPages is how many pages must remain free after an
	// over-share (borrowed) allocation (default totalPages/8).
	BorrowHeadroomPages int
	// IdleExpiry is how long a flow may sit with zero pages held before
	// its share is reclaimed (default 10ms).
	IdleExpiry units.Time
}

type flowAcct struct {
	held     int // pages currently allocated in network memory
	inflight int // pages admitted by AdmitTx but not yet allocated
	lastUse  units.Time
	active   bool
}

func (f *flowAcct) usage() int { return f.held + f.inflight }

type arbWaiter struct {
	f       *flowAcct
	pages   int
	sig     *sim.Signal
	granted bool
}

// Arbiter arbitrates network-memory pages between flows. Install with
// NewArbiter; a nil CAB.Arb is the seed first-come policy.
type Arbiter struct {
	c   *CAB
	cfg ArbConfig

	flows  map[int]*flowAcct
	order  []*flowAcct // registration order: deterministic iteration
	active int         // flows currently holding a share

	waiters      []*arbWaiter
	reclaimArmed bool
}

// NewArbiter installs a netmem arbiter on c and returns it.
func NewArbiter(c *CAB, cfg ArbConfig) *Arbiter {
	if cfg.MinSharePages <= 0 {
		cfg.MinSharePages = 5
	}
	if cfg.BorrowHeadroomPages <= 0 {
		cfg.BorrowHeadroomPages = c.totalPages / 8
	}
	if cfg.IdleExpiry <= 0 {
		cfg.IdleExpiry = 10 * units.Millisecond
	}
	a := &Arbiter{c: c, cfg: cfg, flows: make(map[int]*flowAcct)}
	c.Arb = a
	if c.rxHoldQ == nil {
		c.rxHoldQ = make(map[int][]heldRx)
	}
	return a
}

// ActiveFlows returns the number of flows currently holding a share.
func (a *Arbiter) ActiveFlows() int { return a.active }

// Share returns flow's current share in pages (diagnostics and tests).
func (a *Arbiter) Share(flow int) int {
	f, ok := a.flows[flow]
	if !ok || !f.active {
		return 0
	}
	return a.share()
}

// Held returns the pages currently allocated to flow.
func (a *Arbiter) Held(flow int) int {
	if f, ok := a.flows[flow]; ok {
		return f.held
	}
	return 0
}

// AdmitTx gates n bytes of transmit staging for flow, blocking p until the
// flow's allocation fits the arbitration policy. The admitted pages are
// charged to the flow until the driver's matching AllocPacketFlow lands.
// Flow 0 is admitted unconditionally.
func (a *Arbiter) AdmitTx(p *sim.Proc, flow int, n units.Size) {
	if flow == 0 {
		return
	}
	f := a.touch(flow)
	pages := a.pagesFor(n)
	if len(a.waiters) == 0 && a.admit(f, pages, true) {
		return
	}
	a.c.Stats.ArbWaits++
	w := &arbWaiter{f: f, pages: pages, sig: sim.NewSignal(a.c.eng)}
	a.waiters = append(a.waiters, w)
	for !w.granted {
		w.sig.Wait(p)
	}
}

// rxAdmit gates a receive staging allocation of pages for flow. It never
// blocks (the caller holds the frame in the per-flow rx hold queue and
// retries); flow 0 is always admitted.
func (a *Arbiter) rxAdmit(flow int, n units.Size) bool {
	if flow == 0 {
		return true
	}
	f := a.touch(flow)
	pages := a.pagesFor(n)
	if f.usage()+pages <= a.share() {
		return true
	}
	if a.borrowOK(pages) {
		a.c.Stats.ArbBorrows++
		return true
	}
	return false
}

func (a *Arbiter) pagesFor(n units.Size) int {
	return int((n + a.c.Cfg.PageSize - 1) / a.c.Cfg.PageSize)
}

// share is an active flow's equal split of the memory, floored at
// MinSharePages. A waiter whose flow was reclaimed while it queued can be
// the only flow left, with none active: it gets the floor.
func (a *Arbiter) share() int {
	if a.active == 0 {
		return a.cfg.MinSharePages
	}
	return max(a.cfg.MinSharePages, a.c.totalPages/a.active)
}

// borrowOK reports whether an over-share allocation of pages may be served
// from slack: enough headroom stays free afterwards.
func (a *Arbiter) borrowOK(pages int) bool {
	return a.c.freePages-a.c.reserved-pages >= a.cfg.BorrowHeadroomPages
}

// admit charges pages to f if the policy allows it. borrowPriv grants the
// over-share borrow privilege (fast path with an empty queue, or the head
// waiter during a grant scan).
func (a *Arbiter) admit(f *flowAcct, pages int, borrowPriv bool) bool {
	switch {
	case f.usage()+pages <= a.share():
	case borrowPriv && a.borrowOK(pages):
		a.c.Stats.ArbBorrows++
	default:
		return false
	}
	f.inflight += pages
	f.lastUse = a.c.eng.Now()
	return true
}

// touch returns flow's accounting record, creating or re-activating it.
func (a *Arbiter) touch(flow int) *flowAcct {
	f, ok := a.flows[flow]
	if !ok {
		f = &flowAcct{}
		a.flows[flow] = f
		a.order = append(a.order, f)
	}
	if !f.active {
		f.active = true
		a.active++
	}
	f.lastUse = a.c.eng.Now()
	a.armReclaim()
	return f
}

// allocNotify transfers an admitted allocation from inflight to held
// (called from AllocPacketFlow).
func (a *Arbiter) allocNotify(flow int, pages int) {
	if flow == 0 {
		return
	}
	f := a.touch(flow)
	f.held += pages
	f.inflight = max(0, f.inflight-pages)
}

// freeNotify returns pages to flow's budget and re-evaluates admission
// waiters (called from Packet.Free).
func (a *Arbiter) freeNotify(flow int, pages int) {
	if flow != 0 {
		if f, ok := a.flows[flow]; ok {
			f.held = max(0, f.held-pages)
			f.lastUse = a.c.eng.Now()
			if f.active && f.held == 0 && f.inflight == 0 {
				// The account just drained: arm the timer that will
				// eventually reclaim it.
				a.armReclaim()
			}
		}
	}
	a.grantScan()
}

// grantScan serves queued admissions in FIFO order. Only the head of the
// remaining queue may borrow beyond its share.
func (a *Arbiter) grantScan() {
	if len(a.waiters) == 0 {
		return
	}
	kept := a.waiters[:0]
	for _, w := range a.waiters {
		if a.admit(w.f, w.pages, len(kept) == 0) {
			w.granted = true
			w.sig.Broadcast()
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(a.waiters); i++ {
		a.waiters[i] = nil
	}
	a.waiters = kept
}

func (a *Arbiter) armReclaim() {
	if a.reclaimArmed {
		return
	}
	a.reclaimArmed = true
	a.c.eng.AfterKind(a.cfg.IdleExpiry, sim.KindTimer, a.reclaimTick)
}

// reclaimTick deactivates flows idle for at least IdleExpiry, returning
// their share to the live flows.
func (a *Arbiter) reclaimTick() {
	a.reclaimArmed = false
	now := a.c.eng.Now()
	rearm := len(a.waiters) > 0
	for _, f := range a.order {
		if !f.active {
			continue
		}
		if f.held == 0 && f.inflight == 0 {
			if now-f.lastUse >= a.cfg.IdleExpiry {
				f.active = false
				a.active--
				a.c.Stats.ArbReclaims++
				continue
			}
			// Idle but not yet expired: a later tick will reclaim it.
			rearm = true
		}
		// Flows still holding pages cannot be reclaimed by the timer;
		// freeNotify re-arms it when such an account drains. Re-arming
		// for them here would keep the engine alive forever when pages
		// are stranded (e.g. reassembly data on a dead peer's
		// connection).
	}
	a.grantScan()
	if rearm {
		a.armReclaim()
	}
}
