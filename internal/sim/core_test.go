package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/units"
)

// TestKillAllReapsEveryProc covers the four states a live process can be
// in at teardown: parked with nothing to wake it, parked with its wake-up
// still queued, woken by a signal but not yet delivered, and spawned but
// never started. The last used to leak a goroutine per process.
func TestKillAllReapsEveryProc(t *testing.T) {
	start := runtime.NumGoroutine()
	e := NewEngine(1)
	s := NewSignal(e)
	started, cleaned, neverRan := 0, 0, true
	body := func(block func(p *Proc)) func(*Proc) {
		return func(p *Proc) {
			started++
			defer func() { cleaned++ }()
			block(p)
			t.Errorf("%s ran past its blocking call", p.Name())
		}
	}
	const each = 25
	for i := 0; i < each; i++ {
		e.Go("parked", body(func(p *Proc) { NewSignal(e).Wait(p) }))
		e.Go("sleeping", body(func(p *Proc) { p.Sleep(1000) }))
		e.Go("runnable", body(func(p *Proc) { s.Wait(p) }))
	}
	e.At(10, func() {
		s.Broadcast() // the "runnable" wake-ups queue behind Stop's return
		for i := 0; i < each; i++ {
			e.Go("unstarted", func(*Proc) { neverRan = false })
		}
		e.Stop()
	})
	e.Run()
	if got := e.LiveProcs(); got != 4*each {
		t.Fatalf("live procs before KillAll = %d, want %d", got, 4*each)
	}
	e.KillAll()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs after KillAll = %d (%v), want 0", got, e.LiveProcNames())
	}
	if started != 3*each || cleaned != 3*each {
		t.Fatalf("started %d, ran defers of %d, want %d each", started, cleaned, 3*each)
	}
	if !neverRan {
		t.Fatal("a never-started process ran when killed")
	}
	// Not "!=": the previous test's own goroutine may still have been
	// exiting when start was read.
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("goroutines after KillAll = %d, want the %d there were at the start", n, start)
	}
	// The wake-ups still queued for the dead processes are harmless.
	e.Run()
	if e.Pending() != 0 || e.LiveProcs() != 0 {
		t.Fatalf("after draining: %d events pending, %d procs live", e.Pending(), e.LiveProcs())
	}
}

// TestKillAllOnlyUnstarted is the reproduction from the bug report.
func TestKillAllOnlyUnstarted(t *testing.T) {
	start := runtime.NumGoroutine()
	e := NewEngine(1)
	for i := 0; i < 100; i++ {
		e.Go("never", func(*Proc) { t.Error("ran") })
	}
	e.KillAll()
	if got := e.LiveProcs(); got != 0 {
		t.Fatalf("live procs = %d, want 0", got)
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("goroutines = %d, want the %d there were at the start", n, start)
	}
}

// A killed process whose own defers block again must keep unwinding.
func TestKilledProcBlockingInDeferKeepsUnwinding(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	reached := 0
	e.Go("stubborn", func(p *Proc) {
		defer func() { reached++ }()
		defer func() {
			reached++
			p.Sleep(5)
			t.Error("sleep in a killed process returned")
		}()
		defer func() {
			reached++
			s.Wait(p)
			t.Error("wait in a killed process returned")
		}()
		s.Wait(p)
	})
	e.Run()
	e.KillAll()
	if reached != 3 || e.LiveProcs() != 0 {
		t.Fatalf("ran %d of 3 defers, %d procs live", reached, e.LiveProcs())
	}
}

// zeroAllocs runs step until the structures under test have grown to their
// steady-state size, then requires that it allocates nothing.
func zeroAllocs(t *testing.T, step func()) {
	t.Helper()
	for i := 0; i < 64; i++ {
		step()
	}
	if n := testing.AllocsPerRun(500, step); n != 0 {
		t.Errorf("%v allocs per run, want 0", n)
	}
}

func TestSteadyStateZeroAllocs(t *testing.T) {
	t.Run("After+Step", func(t *testing.T) {
		e := NewEngine(1)
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < 100; i++ { // a standing heap to sift through
			e.After(units.Time(1_000_000+i), fn)
		}
		zeroAllocs(t, func() {
			e.After(3, fn)
			e.AfterKind(1, KindTimer, fn)
			e.Step()
			e.Step()
		})
		if fired == 0 {
			t.Fatal("no event fired")
		}
	})
	t.Run("Lane", func(t *testing.T) {
		e := NewEngine(1)
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < 100; i++ {
			e.After(units.Time(1_000_000+i), fn)
		}
		var chain func()
		chain = func() { // schedules at the instant it runs in
			fired++
			e.AfterKind(0, KindTimer, fn)
		}
		zeroAllocs(t, func() {
			e.At(e.Now(), chain)
			e.AfterKind(0, KindProc, fn)
			e.Step()
			e.Step()
			e.Step()
		})
		if fired == 0 || e.Pending() != 100 {
			t.Fatalf("fired %d, pending %d", fired, e.Pending())
		}
	})
	t.Run("Proc.Sleep", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		wakes := 0
		e.Go("sleeper", func(p *Proc) {
			for {
				p.Sleep(7)
				wakes++
			}
		})
		zeroAllocs(t, func() { e.Step() })
		if wakes == 0 {
			t.Fatal("sleeper never woke")
		}
	})
	t.Run("Proc.Sleep in place", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		wakes := 0
		e.Go("sleeper", func(p *Proc) {
			for {
				for i := 0; i < 10; i++ {
					p.Sleep(7) // nothing else is due: resumes in place
				}
				wakes++
				e.Stop()
				p.Sleep(7) // after Stop: parks, and Run returns
			}
		})
		zeroAllocs(t, e.Run)
		mon := &sleepLog{}
		e.SetMonitor(mon)
		e.Run()
		if wakes == 0 || mon.inPlace != 10 {
			t.Fatalf("wakes %d; one Run resumed %d sleeps in place, want 10", wakes, mon.inPlace)
		}
	})
	t.Run("Signal", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		s := NewSignal(e)
		wakes := 0
		for i := 0; i < 3; i++ {
			e.Go("waiter", func(p *Proc) {
				for {
					s.Wait(p)
					wakes++
				}
			})
		}
		e.Run()
		zeroAllocs(t, func() {
			s.Signal()
			e.Step()
		})
		if wakes == 0 || s.Waiting() != 3 {
			t.Fatalf("wakes %d, waiting %d", wakes, s.Waiting())
		}
	})
	t.Run("Signal.WaitFunc", func(t *testing.T) {
		e := NewEngine(1)
		s := NewSignal(e)
		wakes := 0
		var woken func()
		woken = func() {
			wakes++
			s.WaitFunc(woken)
		}
		s.WaitFunc(woken)
		zeroAllocs(t, func() {
			s.Signal()
			e.Step()
		})
		if wakes == 0 || s.Waiting() != 1 {
			t.Fatalf("wakes %d, waiting %d", wakes, s.Waiting())
		}
	})
	t.Run("Queue", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		q := NewQueue[int](e)
		sum := 0
		e.Go("consumer", func(p *Proc) {
			for {
				sum += q.Get(p)
			}
		})
		e.Run()
		zeroAllocs(t, func() {
			q.Put(1)
			q.Put(2)
			e.Run()
		})
		if sum == 0 || q.Len() != 0 {
			t.Fatalf("sum %d, len %d", sum, q.Len())
		}
	})
	t.Run("Resource", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		r := NewResource(e, 1)
		queued := 0
		for i := 0; i < 4; i++ {
			prio := i % 2
			e.Go("contender", func(p *Proc) {
				for {
					r.Acquire(p, prio)
					queued = max(queued, r.QueueLen())
					p.Sleep(3)
					r.Release()
				}
			})
		}
		zeroAllocs(t, func() { e.Step() })
		if queued < 2 {
			t.Fatalf("resource queue reached %d, want contention", queued)
		}
	})
	t.Run("Resource.AcquireFunc", func(t *testing.T) {
		e := NewEngine(1)
		defer e.KillAll()
		r := NewResource(e, 1)
		e.Go("contender", func(p *Proc) {
			for {
				r.Acquire(p, 0)
				p.Sleep(3)
				r.Release()
				p.Sleep(1)
			}
		})
		grants := 0
		var ask, granted func()
		ask = func() {
			if r.AcquireFunc(1, granted) {
				granted()
			}
		}
		granted = func() {
			grants++
			r.Release()
			e.After(2, ask)
		}
		ask()
		zeroAllocs(t, func() { e.Step() })
		if grants == 0 {
			t.Fatal("the continuation never got the resource")
		}
	})
}

// TestTimerEventAllocFree: once the queues have grown, scheduling and
// dispatching a KindTimer event allocates nothing, with stale expiries and
// other kinds standing in the queues and a timer due at the current
// instant among them.
func TestTimerEventAllocFree(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 100; i++ {
		e.AfterKind(units.Time(1_000_000+i), KindTimer, fn)
		e.AfterKind(units.Time(1_000_000+i), KindWire, fn)
	}
	zeroAllocs(t, func() {
		e.AfterKind(5, KindTimer, fn)
		e.AfterKind(2, KindWire, fn)
		e.AfterKind(0, KindTimer, fn)
		e.Step()
		e.Step()
		e.Step()
	})
	if fired == 0 || e.Pending() != 200 {
		t.Fatalf("fired %d, pending %d", fired, e.Pending())
	}
}

// The reference the event heap is checked against: the container/heap
// implementation the engine used before, kept here as the oracle.
type refEvent struct {
	at   units.Time
	seq  int64
	kind Kind
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refSim is the engine's scheduling contract restated over refHeap: one
// heap for everything, with the Monitor calls the engine must make.
type refSim struct {
	now   units.Time
	seq   int64
	h     refHeap
	fired []refEvent
	mon   []monCall
}

func (r *refSim) at(t units.Time, k Kind) {
	r.seq++
	heap.Push(&r.h, &refEvent{t, r.seq, k})
	r.mon = append(r.mon, monCall{false, k, len(r.h)})
}

func (r *refSim) step() bool {
	if len(r.h) == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	r.now = ev.at
	r.fired = append(r.fired, *ev)
	r.spawn(ev.seq)
	r.mon = append(r.mon, monCall{true, ev.kind, len(r.h)})
	return true
}

func (r *refSim) runUntil(t units.Time) {
	for len(r.h) > 0 && r.h[0].at <= t {
		r.step()
	}
	if t > r.now {
		r.now = t
	}
}

// childOf is what a fired event does next on both sides: some events
// schedule children, at a delay and kind derived from their own sequence
// number, some of them at the firing instant itself.
func childOf(seq int64) (n int, d units.Time, k Kind) {
	x := uint64(seq) * 0x9E3779B97F4A7C15
	return int(x>>61) % 3, units.Time(x >> 40 % 4), Kind(x >> 20 % uint64(NumKinds))
}

func (r *refSim) spawn(seq int64) {
	n, d, k := childOf(seq)
	for i := 0; i < n && r.seq < 4000; i++ {
		r.at(r.now+d, k)
	}
}

// TestEventHeapMatchesContainerHeap holds the engine's two queues — the
// 4-ary heap and the lane for the current instant — to one container/heap
// ordered by (time, sequence): the same events fire in the same order, and
// the monitor sees the same calls with the same pending counts. Events
// are scheduled at Now() both from outside and from inside callbacks,
// between Step calls and RunUntil boundaries that events sit on.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(seed)
		mon := &monLog{}
		e.SetMonitor(mon)
		ref := &refSim{}
		var got []refEvent
		nowOutside, nowInside := 0, 0
		var schedule func(t units.Time, k Kind)
		schedule = func(at units.Time, k Kind) {
			seq := e.seq + 1
			e.AtKind(at, k, func() {
				got = append(got, refEvent{e.Now(), seq, k})
				n, d, ck := childOf(seq)
				for i := 0; i < n && e.seq < 4000; i++ {
					if d == 0 {
						nowInside++
					}
					schedule(e.Now()+d, ck)
				}
			})
		}
		for op := 0; op < 3000; op++ {
			switch x := rng.Intn(10); {
			case x < 5: // few distinct times, so many ties
				at, k := e.Now()+units.Time(rng.Intn(6)), Kind(rng.Intn(int(NumKinds)))
				if at == e.Now() {
					nowOutside++
				}
				schedule(at, k)
				ref.at(at, k)
			case x < 8:
				if e.Step() != ref.step() {
					t.Fatalf("seed %d op %d: Step disagrees on emptiness", seed, op)
				}
			default: // a boundary that events sit exactly on, before and after
				until := e.Now() + units.Time(rng.Intn(4))
				e.RunUntil(until)
				ref.runUntil(until)
			}
			if e.Now() != ref.now || e.Pending() != len(ref.h) {
				t.Fatalf("seed %d op %d: now %v pending %d, reference now %v pending %d",
					seed, op, e.Now(), e.Pending(), ref.now, len(ref.h))
			}
		}
		e.Run()
		for ref.step() {
		}
		if len(got) < 1500 {
			t.Fatalf("seed %d: only %d events fired, the schedule is too thin to prove anything", seed, len(got))
		}
		if nowOutside < 100 || nowInside < 100 {
			t.Fatalf("seed %d: %d events scheduled at Now() from outside and %d from callbacks; the lane is barely used",
				seed, nowOutside, nowInside)
		}
		if len(got) != len(ref.fired) {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, len(got), len(ref.fired))
		}
		for i := range got {
			if got[i] != ref.fired[i] {
				t.Fatalf("seed %d: event %d is (at, seq, kind) = %v, reference %v", seed, i, got[i], ref.fired[i])
			}
		}
		if d := diffCalls(mon.calls, ref.mon); d != "" {
			t.Fatalf("seed %d: monitor %s", seed, d)
		}
	}
}

// diffCalls describes the first Monitor call in which got and want
// differ, or returns "" when they are equal.
func diffCalls(got, want []monCall) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			at := func(l []monCall) string {
				if i < len(l) {
					return fmt.Sprintf("%+v", l[i])
				}
				return "none"
			}
			return fmt.Sprintf("call %d of %d/%d differs: got %s, want %s", i, len(got), len(want), at(got), at(want))
		}
	}
	return ""
}

// sleepLog is a monitor that also counts the dispatches a Sleep ended in
// place (Dispatched called by Proc.Sleep rather than by Step) and those a
// parking process made on its own stack (called by Proc.park).
type sleepLog struct {
	monLog
	inPlace, fromPark int
}

func (l *sleepLog) Dispatched(k Kind, n int) {
	l.monLog.Dispatched(k, n)
	switch {
	case calledBySleep():
		l.inPlace++
	case calledByPark():
		l.fromPark++
	}
}

// calledBySleep reports whether the monitor's caller is Proc.Sleep.
func calledBySleep() bool {
	var pc [4]uintptr
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc[:])])
	f, _ := frames.Next()
	return strings.HasSuffix(f.Function, ".(*Proc).Sleep")
}

// calledByPark reports whether the monitor's caller is Proc.park.
func calledByPark() bool {
	var pc [4]uintptr
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc[:])])
	f, _ := frames.Next()
	return strings.HasSuffix(f.Function, ".(*Proc).park")
}

// sleepScenario runs six random processes that sleep 0–3, signal, wait
// (with a timer they schedule to signal), hold a resource, and schedule
// one to three callbacks due 0–3 from now before sleeping 1–4, so that
// callbacks fall between their park and their wake-up, beside a generic
// event that signals every 3 time units; one process calls Stop twice.
// drive runs the engine to the end; progress tells it the time and the
// number of steps so far. The scenario returns each process step and each
// of those callbacks as time and name, the monitor's record, and the
// progress at each Stop.
func sleepScenario(seed int64, drive func(e *Engine, progress func() string)) (steps []string, mon *sleepLog, stops []string) {
	e := NewEngine(seed)
	defer e.KillAll()
	mon = &sleepLog{}
	e.SetMonitor(mon)
	progress := func() string { return fmt.Sprintf("%v after %d steps", e.Now(), len(steps)) }
	r := NewResource(e, 1)
	s := NewSignal(e)
	live := 0
	var tick func()
	tick = func() {
		s.Signal()
		if live > 0 {
			e.After(3, tick)
		}
	}
	e.After(3, tick)
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("p%d", i)
		live++
		e.Go(name, func(p *Proc) {
			defer func() { live-- }()
			for n := 0; n < 150; n++ {
				op := e.Rand().Intn(7)
				switch op {
				case 0, 1, 2:
					p.Sleep(units.Time(e.Rand().Intn(4)))
				case 3:
					s.Broadcast()
					p.Sleep(units.Time(e.Rand().Intn(4)))
				case 4:
					e.AfterKind(units.Time(1+e.Rand().Intn(5)), KindTimer, s.Signal)
					s.Wait(p)
				case 5:
					r.Acquire(p, e.Rand().Intn(2))
					p.Sleep(units.Time(e.Rand().Intn(4)))
					r.Release()
				case 6:
					for k := e.Rand().Intn(3); k >= 0; k-- {
						cb := fmt.Sprintf("cb %s %d.%d", name, n, k)
						e.After(units.Time(e.Rand().Intn(4)), func() {
							steps = append(steps, fmt.Sprintf("%v %s", e.Now(), cb))
							if k == 0 {
								s.Signal()
							}
						})
					}
					p.Sleep(units.Time(1 + e.Rand().Intn(4)))
				}
				steps = append(steps, fmt.Sprintf("%v %s %d", p.Now(), name, op))
				if name == "p0" && (n == 40 || n == 100) {
					e.Stop()
					stops = append(stops, progress())
				}
			}
		})
	}
	drive(e, progress)
	return steps, mon, stops
}

// TestSleepInPlaceMatchesStepLoop: a Sleep resumed in place, and events
// dispatched on a parking process's stack, under Run are indistinguishable
// from the coroutine round trips a bare Step loop (which does neither)
// makes — the same process steps and callbacks at the same times, and the
// same Monitor calls with the same pending counts — and a Stop from a
// process still ends Run with the event that called it.
func TestSleepInPlaceMatchesStepLoop(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		var returns []string
		got, gotMon, stops := sleepScenario(seed, func(e *Engine, progress func() string) {
			for e.Pending() > 0 {
				e.Run()
				returns = append(returns, progress())
			}
		})
		want, wantMon, _ := sleepScenario(seed, func(e *Engine, _ func() string) {
			for e.Step() {
			}
		})
		procSteps := 0
		for _, st := range got {
			if !strings.Contains(st, " cb ") {
				procSteps++
			}
		}
		if procSteps != 6*150 || len(got) != len(want) {
			t.Fatalf("seed %d: %d process steps under Run, %d steps and callbacks under Run and %d under Step, want %d process steps",
				seed, procSteps, len(got), len(want), 6*150)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: step %d is %q under Run, %q under Step", seed, i, got[i], want[i])
			}
		}
		if d := diffCalls(gotMon.calls, wantMon.calls); d != "" {
			t.Fatalf("seed %d: monitor %s", seed, d)
		}
		if len(returns) != 3 || fmt.Sprint(returns[:2]) != fmt.Sprint(stops) {
			t.Fatalf("seed %d: Run returned at %q; want once at each Stop, %q, then at the end", seed, returns, stops)
		}
		if wantMon.inPlace != 0 || gotMon.inPlace < 30 {
			t.Fatalf("seed %d: %d sleeps resumed in place under Step, %d under Run; want none and many", seed, wantMon.inPlace, gotMon.inPlace)
		}
		if wantMon.fromPark != 0 || gotMon.fromPark < 300 {
			t.Fatalf("seed %d: %d events ended by a parking process under Step, %d under Run; want none and many", seed, wantMon.fromPark, gotMon.fromPark)
		}
	}
}

// TestPanicOnParkedStackReachesRun: a callback that panics while it runs
// on a parking process's stack unwinds that process (it finishes) and
// reaches Run's caller with its own value; KillAll then reaps every other
// process and leaves no goroutine behind.
func TestPanicOnParkedStackReachesRun(t *testing.T) {
	start := runtime.NumGoroutine()
	e := NewEngine(1)
	s := NewSignal(e)
	for i := 0; i < 3; i++ {
		e.Go("waiter", func(p *Proc) { s.Wait(p) })
	}
	sleeper := e.Go("sleeper", func(p *Proc) {
		e.After(1, func() {
			if !strings.Contains(string(debug.Stack()), ".(*Proc).park(") {
				t.Errorf("the callback did not run on the parking process's stack")
			}
			panic("boom")
		})
		p.Sleep(2) // the callback is due first: park dispatches it
		t.Error("the sleeper ran past the panic")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want the callback's \"boom\"", got)
	}
	if !sleeper.Done() || e.LiveProcs() != 3 {
		t.Fatalf("sleeper done %v, %d procs live (%v); want it finished and the 3 waiters parked", sleeper.Done(), e.LiveProcs(), e.LiveProcNames())
	}
	e.KillAll()
	if n := e.LiveProcs(); n != 0 {
		t.Fatalf("live procs after KillAll = %d (%v), want 0", n, e.LiveProcNames())
	}
	if n := runtime.NumGoroutine(); n > start {
		t.Fatalf("goroutines after KillAll = %d, want the %d there were at the start", n, start)
	}
}

// TestEventSeqNamesTheDispatchedEvent: inside a callback, EventSeq is the
// Seq read right after the callback was scheduled — for an event from the
// heap, one from the same-instant lane, and one dispatched after a
// process's Sleep resumed in place. Inside that process, EventSeq is its
// wake-up's.
func TestEventSeqNamesTheDispatchedEvent(t *testing.T) {
	e := NewEngine(1)
	want, got := map[string]int64{}, map[string]int64{}
	schedule := func(name string, d units.Time) {
		e.After(d, func() { got[name] = e.EventSeq() })
		want[name] = e.Seq()
	}
	schedule("heap", 10)
	e.After(20, func() { schedule("lane", 0) })
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(30)
		before := e.Seq()
		p.Sleep(5) // nothing else is due: resumes in place
		want["in place"], got["in place"] = before+1, e.EventSeq()
		schedule("after in place", 1)
	})
	mon := &sleepLog{}
	e.SetMonitor(mon)
	e.Run()
	if mon.inPlace != 1 {
		t.Fatalf("%d sleeps resumed in place, want 1", mon.inPlace)
	}
	for _, name := range []string{"heap", "lane", "in place", "after in place"} {
		if g, ok := got[name]; !ok || g != want[name] || g == 0 {
			t.Errorf("%s: EventSeq %d (ran %v), want %d", name, g, ok, want[name])
		}
	}
}

func TestFifoWrapAround(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			f.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if got := f.Pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	push(8) // fill: capacity is now exactly 8
	if len(f.buf) != 8 {
		t.Fatalf("capacity = %d, want 8", len(f.buf))
	}
	pop(4)  // half-drain: head is mid-array
	push(4) // refill to capacity: the tail wraps
	if len(f.buf) != 8 || f.Len() != 8 {
		t.Fatalf("capacity %d len %d after wrapping, want 8 8", len(f.buf), f.Len())
	}
	for i := 0; i < f.Len(); i++ {
		if got := f.At(i); got != want+i {
			t.Fatalf("at(%d) = %d, want %d", i, got, want+i)
		}
	}
	push(5) // past capacity while wrapped: grow must unwrap in order
	pop(13)
	if f.Len() != 0 {
		t.Fatalf("len = %d, want 0", f.Len())
	}
	for round := 0; round < 100; round++ { // steady state never grows again
		push(3)
		pop(3)
	}
	if len(f.buf) != 16 {
		t.Fatalf("capacity = %d after steady state, want 16", len(f.buf))
	}
}

// The same through a Signal: waiters are woken in arrival order across a
// wrap and a growth of the waiter array.
func TestSignalFIFOAcrossWrap(t *testing.T) {
	e := NewEngine(1)
	s := NewSignal(e)
	var order []int
	id := 0
	spawn := func(n int) {
		for i := 0; i < n; i++ {
			me := id
			id++
			e.Go("w", func(p *Proc) {
				s.Wait(p)
				order = append(order, me)
			})
		}
		e.Run()
	}
	wake := func(n int) {
		for i := 0; i < n; i++ {
			s.Signal()
		}
		e.Run()
	}
	spawn(8)
	wake(4)
	spawn(4)
	spawn(5)
	if got := s.Waiting(); got != 13 {
		t.Fatalf("Waiting = %d, want 13", got)
	}
	wake(6)
	s.Broadcast()
	e.Run()
	if len(order) != id {
		t.Fatalf("woke %d of %d", len(order), id)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("wake order %v is not arrival order", order)
		}
	}
}
