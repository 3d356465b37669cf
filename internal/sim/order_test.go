package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/units"
)

// orderMon checks the schedule while it happens. Every dispatch must come
// strictly after the one before it in (Now, EventSeq), and every call's
// pending count must equal the events scheduled so far minus those
// dispatched, less the one being dispatched when an event schedules
// another (once driving is set, every scheduling is). The first failure is
// kept, not reported at once: a Sleep resumed in place calls the monitor
// from inside a process.
type orderMon struct {
	e                     *Engine
	driving               bool
	scheduled, dispatched int
	at                    units.Time
	seq                   int64
	kinds                 [NumKinds]int
	inPlace               int
	err                   string
}

func (m *orderMon) fail(format string, args ...any) {
	if m.err == "" {
		m.err = fmt.Sprintf(format, args...)
	}
}

func (m *orderMon) Scheduled(k Kind, n int) {
	m.scheduled++
	inFlight := 0
	if m.driving {
		inFlight = 1
	}
	if n != m.scheduled-m.dispatched-inFlight {
		m.fail("Scheduled(%v) at %v: pending %d, want %d scheduled - %d dispatched - %d in flight",
			k, m.e.Now(), n, m.scheduled, m.dispatched, inFlight)
	}
}

func (m *orderMon) Dispatched(k Kind, n int) {
	m.dispatched++
	now, seq := m.e.Now(), m.e.EventSeq()
	if now < m.at || now == m.at && seq <= m.seq {
		m.fail("dispatch %d is (%v, %d), after (%v, %d)", m.dispatched, now, seq, m.at, m.seq)
	}
	m.at, m.seq = now, seq
	m.kinds[k]++
	if calledBySleep() {
		m.inPlace++
	}
	if n != m.scheduled-m.dispatched {
		m.fail("Dispatched(%v) at %v: pending %d, want %d scheduled - %d dispatched",
			k, now, n, m.scheduled, m.dispatched)
	}
}

// orderConn is a TCP-like connection's retransmit timer: one slot keyed by
// the sequence number of its live expiry. A re-arm schedules a new expiry
// and leaves the old one to fire as a no-op, which is what makes a run's
// pending events mostly stale timers.
type orderConn struct {
	e            *Engine
	live         int64
	due          units.Time
	fires, stale int
	expire       func()
}

func (c *orderConn) arm(d units.Time) {
	c.e.AfterKind(d, KindTimer, c.expire)
	c.live, c.due = c.e.Seq(), c.e.Now()+d
}

// orderScenario runs one seeded mix of every event kind and every way to
// wait, driven by a random interleaving of Step, RunUntil and Run (which
// Stop calls from events and processes end). It checks the engine's
// Pending against the monitor between drive calls, that live timers fire
// exactly at their deadlines, and that the run drains, and returns the
// monitor and the connections.
func orderScenario(t *testing.T, seed int64) (*orderMon, []*orderConn) {
	e := NewEngine(seed)
	defer e.KillAll()
	mon := &orderMon{e: e}
	e.SetMonitor(mon)
	rng := rand.New(rand.NewSource(seed))
	const budget = 6000 // events scheduled by the sources below, roughly
	busy := func() bool { return mon.scheduled < budget }

	conns := make([]*orderConn, 48)
	for i := range conns {
		c := &orderConn{e: e}
		c.expire = func() {
			if e.EventSeq() != c.live {
				c.stale++
				return
			}
			c.fires++
			if e.Now() != c.due {
				mon.fail("a live timer due at %v fired at %v", c.due, e.Now())
			}
			if busy() {
				c.arm(units.Time(20 + e.Rand().Intn(40)))
			}
		}
		conns[i] = c
		c.arm(50)
	}
	// Wire arrivals re-arm a connection's timer, sometimes at the same
	// instant as other work; DMA completions chain at the current instant.
	var wire, dma func()
	wire = func() {
		conns[e.Rand().Intn(len(conns))].arm(units.Time(10 + e.Rand().Intn(50)))
		if busy() {
			e.AfterKind(units.Time(e.Rand().Intn(3)), KindWire, wire)
			if e.Rand().Intn(4) == 0 {
				e.AfterKind(0, KindDMA, dma)
			}
		}
	}
	dma = func() {
		if e.Rand().Intn(3) == 0 {
			e.AfterKind(0, KindGeneric, func() {})
		}
	}
	for i := 0; i < 3; i++ {
		e.AfterKind(units.Time(i), KindWire, wire)
	}

	s := NewSignal(e)
	r := NewResource(e, 1)
	q := NewQueue[int](e)
	live := 0
	var tick, stop func()
	tick = func() { // wakes the signal waiters while any process is live
		s.Signal()
		q.Put(1)
		if live > 0 {
			e.AfterKind(3, KindGeneric, tick)
		}
	}
	e.AfterKind(3, KindGeneric, tick)
	stop = func() {
		e.Stop()
		if busy() || live > 0 {
			e.After(units.Time(5+e.Rand().Intn(30)), stop)
		}
	}
	e.After(7, stop)
	// A continuation that holds the resource in turns with the processes.
	var ask, granted func()
	ask = func() {
		if busy() && r.AcquireFunc(1, granted) {
			granted()
		}
	}
	granted = func() {
		e.After(2, func() {
			r.Release()
			e.After(units.Time(e.Rand().Intn(4)), ask)
		})
	}
	ask()
	for i := 0; i < 5; i++ {
		live++
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			defer func() { live-- }()
			for n := 0; n < 200; n++ {
				switch e.Rand().Intn(8) {
				case 0, 1:
					p.Sleep(units.Time(e.Rand().Intn(4)))
				case 2:
					p.Sleep(units.Time(40 + e.Rand().Intn(40))) // past pending timers
				case 3:
					s.Wait(p)
				case 4: // a wait with a wake-up of its own, as a timer
					e.AfterKind(units.Time(1+e.Rand().Intn(5)), KindTimer, s.Signal)
					s.Wait(p)
				case 5:
					r.Acquire(p, e.Rand().Intn(2))
					p.Sleep(units.Time(e.Rand().Intn(3)))
					r.Release()
				case 6:
					q.Get(p)
				case 7:
					s.Broadcast()
					if e.Rand().Intn(10) == 0 {
						e.Stop()
					}
					p.Yield()
				}
			}
		})
	}

	check := func(op string) {
		if mon.err != "" {
			t.Fatalf("seed %d, after %s: %s", seed, op, mon.err)
		}
		if mon.dispatched > 10*budget {
			t.Fatalf("seed %d, after %s at %v: %d events dispatched and %d pending; the run does not drain",
				seed, op, e.Now(), mon.dispatched, e.Pending())
		}
		if want := mon.scheduled - mon.dispatched; e.Pending() != want {
			t.Fatalf("seed %d, after %s at %v: Pending() = %d, want %d scheduled - %d dispatched",
				seed, op, e.Now(), e.Pending(), mon.scheduled, mon.dispatched)
		}
	}
	check("setup")
	mon.driving = true
	for e.Pending() > 0 {
		switch x := rng.Intn(10); {
		case x < 4:
			e.Step()
			check("Step")
		case x < 7:
			e.RunUntil(e.Now() + units.Time(rng.Intn(6)))
			check("RunUntil")
		default:
			e.Run()
			check("Run")
		}
	}
	return mon, conns
}

// TestScheduleOrderOracle: whatever the engine keeps its pending events
// in, dispatches come in strictly increasing (time, sequence) order and
// Pending counts what was scheduled and not yet dispatched — under a mix
// of every kind, stale timer expiries from re-armed slots, same-instant
// chains, processes that sleep in place and parked, Signal waits (some
// with a timer that signals), Resource and Queue waits, continuations,
// RunUntil and Stop.
func TestScheduleOrderOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		mon, conns := orderScenario(t, seed)
		fires, stale := 0, 0
		for _, c := range conns {
			fires += c.fires
			stale += c.stale
		}
		for k, n := range mon.kinds {
			if n < 50 {
				t.Fatalf("seed %d: %d %v events dispatched; the mix is too thin", seed, n, Kind(k))
			}
		}
		if stale < 2*fires || fires < 100 || mon.inPlace < 50 {
			t.Fatalf("seed %d: %d stale timer expiries for %d live ones, %d sleeps in place; want mostly stale timers, many live ones and many in-place sleeps",
				seed, stale, fires, mon.inPlace)
		}
	}
}
