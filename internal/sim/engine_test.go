package sim

import (
	"fmt"
	"testing"

	"repro/internal/units"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(5, func() {})
}

func TestAfterAndNesting(t *testing.T) {
	e := NewEngine(1)
	var fired units.Time
	e.After(100, func() {
		e.After(50, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 150 {
		t.Fatalf("nested event fired at %v, want 150", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := units.Time(10); i <= 100; i += 10 {
		e.At(i, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("ran %d events, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("ran %d events total, want 10", count)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := units.Time(1); i <= 100; i++ {
		e.At(i, func() {
			count++
			if count == 7 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 7 {
		t.Fatalf("ran %d events, want 7 after Stop", count)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var wakes []units.Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(10)
		wakes = append(wakes, p.Now())
		p.Sleep(25)
		wakes = append(wakes, p.Now())
	})
	e.Run()
	if len(wakes) != 2 || wakes[0] != 10 || wakes[1] != 35 {
		t.Fatalf("wakes = %v, want [10 35]", wakes)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs = %d, want 0", e.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10)
		trace = append(trace, "a1")
		p.Sleep(20) // wakes at 30
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(20)
		trace = append(trace, "b1")
	})
	e.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.At(50, func() { s.Broadcast() })
	e.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestSignalSignalWakesOne(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	woken := 0
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			s.Wait(p)
			woken++
		})
	}
	e.At(50, func() { s.Signal() })
	e.Run()
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
	if s.Waiting() != 2 {
		t.Fatalf("waiting = %d, want 2", s.Waiting())
	}
	e.KillAll()
}

func TestSignalWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var timedOut, signaled bool
	e.Go("t", func(p *Proc) {
		timedOut = !s.WaitTimeout(p, 10)
	})
	e.Go("s", func(p *Proc) {
		signaled = s.WaitTimeout(p, 100)
	})
	e.At(50, func() { s.Broadcast() })
	e.Run()
	if !timedOut {
		t.Fatal("first waiter should have timed out")
	}
	if !signaled {
		t.Fatal("second waiter should have been signaled")
	}
}

func TestSignalWaitTimeoutNoDoubleWake(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	wakes := 0
	e.Go("w", func(p *Proc) {
		s.WaitTimeout(p, 10)
		wakes++
		p.Sleep(1000) // park again; a stray second wake would resume early
		wakes++
	})
	e.At(10, func() { s.Broadcast() }) // broadcast at exactly the timeout
	e.Run()
	if wakes != 2 {
		t.Fatalf("wakes = %d, want 2", wakes)
	}
	if e.Now() != 1010 {
		t.Fatalf("final time %v, want 1010 (no early wake)", e.Now())
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Go("p", func(p *Proc) {
			r.Acquire(p, 0)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10)
			inside--
			r.Release()
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	if e.Now() != 40 {
		t.Fatalf("serialized work finished at %v, want 40", e.Now())
	}
}

func TestResourcePriority(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	hold := func(name string, prio int) func(*Proc) {
		return func(p *Proc) {
			r.Acquire(p, prio)
			order = append(order, name)
			p.Sleep(10)
			r.Release()
		}
	}
	// First proc grabs the resource; others queue with mixed priorities.
	e.Go("first", hold("first", 5))
	e.At(1, func() { e.Go("low", hold("low", 10)) })
	e.At(2, func() { e.Go("high", hold("high", 0)) })
	e.At(3, func() { e.Go("mid", hold("mid", 5)) })
	e.Run()
	want := []string{"first", "high", "mid", "low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestResourceCapacity(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 2)
	done := 0
	for i := 0; i < 4; i++ {
		e.Go("p", func(p *Proc) {
			r.Acquire(p, 0)
			p.Sleep(10)
			r.Release()
			done++
		})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if e.Now() != 20 {
		t.Fatalf("finished at %v, want 20 with capacity 2", e.Now())
	}
}

func TestTryAcquire(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after release should succeed")
	}
}

func TestAcquireFuncTakesFreeUnit(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	ran := false
	if !r.AcquireFunc(3, func() { ran = true }) {
		t.Fatal("AcquireFunc on a free resource should take the unit")
	}
	if r.InUse() != 1 || r.QueueLen() != 0 || e.Pending() != 0 {
		t.Fatalf("inUse %d, queued %d, pending %d; want 1, 0, 0", r.InUse(), r.QueueLen(), e.Pending())
	}
	e.Run()
	if ran {
		t.Fatal("the continuation of an immediate take must not be scheduled: the caller goes on itself")
	}
	r.Release()
	if r.InUse() != 0 {
		t.Fatalf("inUse %d after release", r.InUse())
	}
}

// Processes and continuations wait in one queue: priority first, then
// arrival, whatever the waiter is.
func TestAcquireFuncQueuesWithProcs(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	proc := func(name string, prio int) {
		e.Go(name, func(p *Proc) {
			r.Acquire(p, prio)
			order = append(order, name)
			p.Sleep(10)
			r.Release()
		})
	}
	cont := func(name string, prio int) {
		var granted func()
		granted = func() {
			order = append(order, name)
			e.After(10, r.Release)
		}
		if r.AcquireFunc(prio, granted) {
			granted()
		}
	}
	proc("first", 5)
	e.At(1, func() { proc("procA", 5) })
	e.At(2, func() { cont("contB", 5) })
	e.At(3, func() { cont("contC", 1) })
	e.At(4, func() { proc("procD", 5) })
	e.At(5, func() { cont("contE", 1) })
	e.At(6, func() { proc("procF", 1) })
	e.Run()
	want := []string{"first", "contC", "contE", "procF", "procA", "contB", "procD"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Fatalf("inUse %d, queued %d at the end", r.InUse(), r.QueueLen())
	}
}

// monCall is one Monitor call, as the engine made it or as a reference
// says it must have.
type monCall struct {
	dispatched bool
	kind       Kind
	pending    int
}

// monLog records every Monitor call in order.
type monLog struct{ calls []monCall }

func (l *monLog) Scheduled(k Kind, n int)  { l.calls = append(l.calls, monCall{false, k, n}) }
func (l *monLog) Dispatched(k Kind, n int) { l.calls = append(l.calls, monCall{true, k, n}) }

// A grant is an event, not a call: Release returns before the continuation
// runs, the continuation runs at the same instant as a KindProc event, and
// it runs after whatever was already scheduled for that instant — the slot
// a parked process's wake-up would have had.
func TestAcquireFuncGrantIsAProcEvent(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, 1)
	var order []string
	var grantedAt units.Time = -1
	if !r.TryAcquire() {
		t.Fatal("resource should be free")
	}
	if r.AcquireFunc(0, func() {
		order = append(order, "granted")
		grantedAt = e.Now()
	}) {
		t.Fatal("AcquireFunc on a held resource should queue")
	}
	log := &monLog{}
	e.At(50, func() {
		e.After(0, func() { order = append(order, "earlier") })
		e.SetMonitor(log)
		r.Release()
		e.SetMonitor(nil)
		order = append(order, "released")
		if r.InUse() != 1 {
			t.Errorf("inUse %d right after the grant, want the unit passed on", r.InUse())
		}
		e.After(0, func() { order = append(order, "later") })
	})
	e.Run()
	if want := "[released earlier granted later]"; fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if grantedAt != 50 {
		t.Fatalf("granted at %v, want 50", grantedAt)
	}
	if len(log.calls) != 1 || log.calls[0].dispatched || log.calls[0].kind != KindProc {
		t.Fatalf("Release made monitor calls %v, want one KindProc event scheduled", log.calls)
	}
}

// A Signal's or Queue's wake of a continuation is an event, as a grant
// is (above): Signal and Put return before the continuation runs, and it
// runs at the same instant as one KindProc event, after whatever was
// already scheduled for that instant.
func TestWaitFuncWakeIsAProcEvent(t *testing.T) {
	for _, c := range []struct {
		name string
		// wait queues fn and returns the call that wakes it.
		wait func(e *Engine, fn func()) (wake func())
	}{
		{"Signal", func(e *Engine, fn func()) func() {
			s := NewSignal(e)
			s.WaitFunc(fn)
			return s.Signal
		}},
		{"Queue", func(e *Engine, fn func()) func() {
			q := NewQueue[int](e)
			q.WaitFunc(func() {
				if v, ok := q.TryGet(); !ok || v != 7 {
					t.Errorf("woken continuation took %v, %v; want the item put", v, ok)
				}
				fn()
			})
			return func() { q.Put(7) }
		}},
	} {
		e := NewEngine(1)
		var order []string
		var wokenAt units.Time = -1
		wake := c.wait(e, func() {
			order = append(order, "woken")
			wokenAt = e.Now()
		})
		log := &monLog{}
		e.At(50, func() {
			e.After(0, func() { order = append(order, "earlier") })
			e.SetMonitor(log)
			wake()
			e.SetMonitor(nil)
			order = append(order, "signaled")
			e.After(0, func() { order = append(order, "later") })
		})
		e.Run()
		if want := "[signaled earlier woken later]"; fmt.Sprint(order) != want {
			t.Errorf("%s: order = %v, want %v", c.name, order, want)
		}
		if wokenAt != 50 {
			t.Errorf("%s: woken at %v, want 50", c.name, wokenAt)
		}
		if len(log.calls) != 1 || log.calls[0].dispatched || log.calls[0].kind != KindProc {
			t.Errorf("%s: the wake made monitor calls %v, want one KindProc event scheduled", c.name, log.calls)
		}
	}
}

// Processes and continuations wait in one FIFO: Signal wakes the longest
// waiter, whatever it is, and Broadcast the rest in arrival order; a
// Queue hands its items out the same way.
func TestWaitFuncQueuesWithProcs(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	q := NewQueue[string](e)
	var order []string
	proc := func(name string) {
		e.Go(name, func(p *Proc) {
			s.Wait(p)
			order = append(order, fmt.Sprintf("%s@%v", name, p.Now()))
			order = append(order, name+":"+q.Get(p))
		})
	}
	cont := func(name string) {
		s.WaitFunc(func() {
			order = append(order, fmt.Sprintf("%s@%v", name, e.Now()))
			var got func()
			got = func() {
				if v, ok := q.TryGet(); ok {
					order = append(order, name+":"+v)
					return
				}
				q.WaitFunc(got)
			}
			got()
		})
	}
	proc("procA")
	e.At(1, func() { cont("contB") })
	e.At(2, func() { proc("procC") })
	e.At(3, func() { cont("contD") })
	e.At(4, func() { proc("procE") })
	e.At(10, func() {
		if got := s.Waiting(); got != 5 {
			t.Errorf("Waiting = %d, want 5", got)
		}
		s.Signal()
		s.Signal()
	})
	e.At(20, func() {
		if got := s.Waiting(); got != 3 {
			t.Errorf("Waiting after two signals = %d, want 3", got)
		}
		s.Broadcast()
	})
	e.At(30, func() {
		for _, v := range []string{"1", "2", "3", "4", "5"} {
			q.Put(v)
		}
	})
	e.Run()
	want := "[procA@10ns contB@10ns procC@20ns contD@20ns procE@20ns procA:1 contB:2 procC:3 contD:4 procE:5]"
	if fmt.Sprint(order) != want {
		t.Fatalf("order = %v\n   want %v", order, want)
	}
	if s.Waiting() != 0 || e.LiveProcs() != 0 {
		t.Fatalf("%d waiting, %d procs live at the end", s.Waiting(), e.LiveProcs())
	}
}

func TestQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e)
	var got []int
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.At(10, func() {
		for i := 1; i <= 5; i++ {
			q.Put(i)
		}
	})
	e.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want 1..5", got)
		}
	}
}

func TestQueueBlocksUntilPut(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string](e)
	var at units.Time
	e.Go("consumer", func(p *Proc) {
		q.Get(p)
		at = p.Now()
	})
	e.At(77, func() { q.Put("x") })
	e.Run()
	if at != 77 {
		t.Fatalf("consumer resumed at %v, want 77", at)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []units.Time {
		e := NewEngine(42)
		var log []units.Time
		r := NewResource(e, 1)
		for i := 0; i < 10; i++ {
			e.Go("p", func(p *Proc) {
				d := units.Time(e.Rand().Intn(100))
				p.Sleep(d)
				r.Acquire(p, 0)
				p.Sleep(5)
				log = append(log, p.Now())
				r.Release()
			})
		}
		e.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestKillAll(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	cleaned := false
	e.Go("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		s.Wait(p) // never signaled
	})
	e.Run()
	if e.LiveProcs() != 1 {
		t.Fatalf("live procs = %d, want 1", e.LiveProcs())
	}
	e.KillAll()
	if !cleaned {
		t.Fatal("killed process defers did not run")
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("live procs after KillAll = %d, want 0", e.LiveProcs())
	}
}

func TestYield(t *testing.T) {
	e := NewEngine(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Yield()
		trace = append(trace, "a1")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
	})
	e.Run()
	if trace[0] != "a0" || trace[1] != "b0" || trace[2] != "a1" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestProcPanicPropagatesToEngine(t *testing.T) {
	e := NewEngine(1)
	bad := e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
		if !bad.Done() || e.LiveProcs() != 0 {
			t.Fatalf("after the panic: done=%v live=%d, want true 0", bad.Done(), e.LiveProcs())
		}
	}()
	e.Run()
	t.Fatal("panic not propagated")
}
