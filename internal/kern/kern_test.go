package kern

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/mem"
	"repro/internal/obs/engine"
	"repro/internal/obs/prof"
	"repro/internal/sim"
	"repro/internal/units"
)

func newTestKernel() (*sim.Engine, *Kernel) {
	e := sim.NewEngine(1)
	k := New("host", e, cost.Alpha400())
	return e, k
}

func TestWorkChargesTask(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("ttcp", PrioUser, nil)
	e.Go("w", func(p *sim.Proc) {
		k.Work(p, task, 500*units.Microsecond, CatCopy, true)
		k.Work(p, task, 200*units.Microsecond, CatApp, false)
	})
	e.Run()
	if task.SysTime != 500*units.Microsecond {
		t.Fatalf("sys = %v, want 500us", task.SysTime)
	}
	if task.UserTime != 200*units.Microsecond {
		t.Fatalf("user = %v, want 200us", task.UserTime)
	}
	if k.CategoryTime(CatCopy) != 500*units.Microsecond {
		t.Fatalf("copy cat = %v", k.CategoryTime(CatCopy))
	}
	if k.BusyTime() != 700*units.Microsecond {
		t.Fatalf("busy = %v, want 700us", k.BusyTime())
	}
	e.KillAll()
}

func TestPreemptionByInterrupt(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("util", PrioIdle, nil)
	var intrAt units.Time
	e.Go("long", func(p *sim.Proc) {
		// 10 ms of low-priority work, sliced at quantum granularity.
		k.Work(p, task, 10*units.Millisecond, CatApp, false)
	})
	e.At(1*units.Millisecond, func() {
		k.PostIntr("tick", func(p *sim.Proc) { intrAt = p.Now() })
	})
	e.Run()
	// The interrupt must get the CPU within ~2 quanta, not after 10 ms.
	if intrAt == 0 || intrAt > 2*units.Millisecond {
		t.Fatalf("interrupt served at %v, want ≤ ~1.3ms", intrAt)
	}
	e.KillAll()
}

func TestInterruptMisattribution(t *testing.T) {
	e, k := newTestKernel()
	util := k.NewTask("util", PrioIdle, nil)
	e.Go("util", func(p *sim.Proc) {
		k.Work(p, util, 5*units.Millisecond, CatApp, false)
	})
	e.At(1*units.Millisecond, func() {
		k.PostIntr("net", func(p *sim.Proc) {
			k.IntrWork(p, 300*units.Microsecond, CatProto)
		})
	})
	e.Run()
	// The dispatch cost + handler work lands in util's *system* time even
	// though util did nothing to cause it — the paper's misattribution.
	wantSys := k.Mach.InterruptCost + 300*units.Microsecond
	if util.SysTime != wantSys {
		t.Fatalf("util sys = %v, want %v", util.SysTime, wantSys)
	}
	if util.UserTime != 5*units.Millisecond {
		t.Fatalf("util user = %v, want 5ms", util.UserTime)
	}
	e.KillAll()
}

func TestPriorityOrdering(t *testing.T) {
	e, k := newTestKernel()
	user := k.NewTask("user", PrioUser, nil)
	idle := k.NewTask("idle", PrioIdle, nil)
	var order []string
	// Saturate the CPU with an idle-priority hog, then submit user work.
	e.Go("idle", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			k.Work(p, idle, k.Quantum, CatApp, false)
			order = append(order, "idle")
		}
	})
	e.At(10*units.Microsecond, func() {
		e.Go("user", func(p *sim.Proc) {
			k.Work(p, user, k.Quantum, CatApp, false)
			order = append(order, "user")
		})
	})
	e.Run()
	// The user task must complete long before the hog finishes.
	for i, s := range order {
		if s == "user" {
			if i > 3 {
				t.Fatalf("user work ran at position %d: %v", i, order[:i+1])
			}
			return
		}
	}
	t.Fatal("user work never ran")
}

func TestVMPinCosts(t *testing.T) {
	e, k := newTestKernel()
	vm := NewVM(k)
	task := k.NewTask("t", PrioUser, nil)
	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	buf := space.Alloc(64*units.KB, 0) // 8 pages
	e.Go("w", func(p *sim.Proc) {
		vm.PinBuf(p, task, space, buf.Addr, buf.Len)
		vm.UnpinBuf(p, task, space, buf.Addr, buf.Len)
	})
	e.Run()
	want := k.Mach.PinTime(8) + k.Mach.UnpinTime(8)
	if k.CategoryTime(CatVM) != want {
		t.Fatalf("vm time = %v, want %v", k.CategoryTime(CatVM), want)
	}
	if space.PinnedPages() != 0 {
		t.Fatalf("pinned pages = %d, want 0", space.PinnedPages())
	}
	e.KillAll()
}

func TestVMLazyUnpinCacheHit(t *testing.T) {
	e, k := newTestKernel()
	vm := NewVM(k)
	vm.LazyUnpin = true
	task := k.NewTask("t", PrioUser, nil)
	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	buf := space.Alloc(64*units.KB, 0)
	e.Go("w", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			vm.PinBuf(p, task, space, buf.Addr, buf.Len)
			vm.UnpinBuf(p, task, space, buf.Addr, buf.Len)
		}
	})
	e.Run()
	if vm.Pins != 1 || vm.PinHits != 9 {
		t.Fatalf("pins=%d hits=%d, want 1/9", vm.Pins, vm.PinHits)
	}
	// Cost: one real pin + nine cheap checks; no unpins at all.
	want := k.Mach.PinTime(8) + 9*vm.PinHitCheck
	if k.CategoryTime(CatVM) != want {
		t.Fatalf("vm time = %v, want %v", k.CategoryTime(CatVM), want)
	}
	if !space.Pinned(buf.Addr, buf.Len) {
		t.Fatal("buffer should still be pinned (lazy)")
	}
	e.KillAll()
}

func TestVMLazyEviction(t *testing.T) {
	e, k := newTestKernel()
	vm := NewVM(k)
	vm.LazyUnpin = true
	vm.MaxLazyPages = 8
	task := k.NewTask("t", PrioUser, nil)
	space := mem.NewAddrSpace("u", 2*units.MB, k.Mach.PageSize)
	a := space.Alloc(64*units.KB, 0) // 8 pages
	b := space.Alloc(64*units.KB, 0) // 8 pages
	e.Go("w", func(p *sim.Proc) {
		vm.PinBuf(p, task, space, a.Addr, a.Len)
		vm.UnpinBuf(p, task, space, a.Addr, a.Len) // deferred (8 ≤ 8)
		vm.PinBuf(p, task, space, b.Addr, b.Len)
		vm.UnpinBuf(p, task, space, b.Addr, b.Len) // 16 > 8: evict a, then b stays? a evicted, then still 8 ≤ 8
	})
	e.Run()
	if vm.LazyEvictions != 1 {
		t.Fatalf("evictions = %d, want 1", vm.LazyEvictions)
	}
	if space.Pinned(a.Addr, a.Len) {
		t.Fatal("a should have been evicted (unpinned)")
	}
	if !space.Pinned(b.Addr, b.Len) {
		t.Fatal("b should still be lazily pinned")
	}
	e.KillAll()
}

func TestCopyAndChecksumCharges(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("t", PrioUser, nil)
	src := make([]byte, 32*units.KB)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, len(src))
	var sum uint32
	e.Go("w", func(p *sim.Proc) {
		c := k.TaskCtx(p, task)
		c.CopyBytes(dst, src, 1*units.MB)
		c.ChecksumCharge(units.Size(len(dst)), 1*units.MB)
		sum = checksum.Sum(dst)
	})
	e.Run()
	if dst[100] != src[100] {
		t.Fatal("copy did not move bytes")
	}
	if sum == 0 {
		t.Fatal("checksum not computed")
	}
	wantCopy := k.Mach.CopyTime(32*units.KB, 1*units.MB)
	if k.CategoryTime(CatCopy) != wantCopy {
		t.Fatalf("copy time = %v, want %v", k.CategoryTime(CatCopy), wantCopy)
	}
	// 32 KB at 350 Mb/s ≈ 749 µs.
	if got := k.CategoryTime(CatCopy).Micros(); got < 700 || got > 800 {
		t.Fatalf("copy time = %.1fus, want ~749", got)
	}
	e.KillAll()
}

func TestUIOCopyHelpers(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("t", PrioUser, nil)
	space := mem.NewAddrSpace("u", 1*units.MB, k.Mach.PageSize)
	buf := space.Alloc(1000, 4)
	u := mem.NewUIO(buf)
	for i := range buf.Bytes() {
		buf.Bytes()[i] = byte(i * 3)
	}
	dst := make([]byte, 500)
	e.Go("w", func(p *sim.Proc) {
		c := k.TaskCtx(p, task)
		c.CopyFromUIO(u, 100, 500, dst, 1000)
		c.CopyToUIO(u, 0, dst, 1000)
	})
	e.Run()
	want := byte(100 * 3 % 256)
	if dst[0] != want {
		t.Fatal("CopyFromUIO wrong bytes")
	}
	if buf.Bytes()[0] != want {
		t.Fatal("CopyToUIO wrong bytes")
	}
	e.KillAll()
}

func TestResetAccounting(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("t", PrioUser, nil)
	e.Go("w", func(p *sim.Proc) {
		k.Work(p, task, 100*units.Microsecond, CatCopy, true)
	})
	e.Run()
	k.ResetAccounting()
	if k.BusyTime() != 0 || k.CategoryTime(CatCopy) != 0 {
		t.Fatal("reset did not clear counters")
	}
	e.KillAll()
}

// procSoak is the idle soaker as ttcp ran it before Kernel.Soak: a process
// looping on Work. It stays here as the oracle Soak is held to.
func procSoak(k *Kernel, t *Task, cat Category, stopped func() bool) {
	k.Eng.Go(k.Name+"/util", func(p *sim.Proc) {
		for !stopped() {
			k.Work(p, t, k.Quantum, cat, false)
		}
	})
}

// soakRun is everything observable about one run of the scenario below.
type soakRun struct {
	End        units.Time
	Tasks      [3][2]units.Time // util, worker, daemon × user, sys
	Busy       units.Time
	Cats       map[string]units.Time
	Engine     engine.Deterministic
	Folded     string
	Order      []string // (time, who ran, whom the kernel thinks is on the CPU)
	StopChecks int      // stopped() calls once it reports true
	StoppedAt  units.Time
}

// runSoakScenario runs one host — an interrupt source firing at
// pseudo-random times, some exactly on quantum boundaries, with handlers
// both shorter and longer than a quantum; a user-priority worker that ends
// the run; a kernel-priority daemon — under the soaker soak starts.
func runSoakScenario(t *testing.T, soak func(k *Kernel, t *Task, cat Category, stopped func() bool)) soakRun {
	t.Helper()
	e := sim.NewEngine(1)
	o := engine.New()
	o.Attach(e)
	k := New("host", e, cost.Alpha400())
	k.EngObs = o
	pr := prof.New(CategoryNames())
	k.Prof = pr.Host("host")
	util := k.NewTask("util", PrioIdle, nil)
	worker := k.NewTask("worker", PrioUser, nil)
	daemon := k.NewTask("daemon", PrioKern, nil)

	var r soakRun
	log := func(who string) {
		r.Order = append(r.Order, fmt.Sprintf("%d %s cur=%s", e.Now(), who, k.cur.Name))
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 60; i++ {
		at := units.Time(rng.Int63n(int64(20 * units.Millisecond)))
		if i%3 == 0 {
			at -= at % k.Quantum
		}
		d := units.Time(5+rng.Int63n(150)) * units.Microsecond
		e.At(at, func() {
			k.PostIntr("dev", func(p *sim.Proc) {
				log("intr")
				k.IntrWork(p, d, CatDriver)
			})
		})
	}
	var work, rest [40]units.Time
	for i := range work {
		work[i] = units.Time(10+rng.Int63n(240)) * units.Microsecond
		rest[i] = units.Time(rng.Int63n(400)) * units.Microsecond
	}
	stop := false
	e.Go("worker", func(p *sim.Proc) {
		for i := range work {
			k.Work(p, worker, work[i], CatCopy, i%2 == 0)
			log("worker")
			p.Sleep(rest[i])
		}
		stop = true
		r.StoppedAt = p.Now()
	})
	e.Go("daemon", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			k.Work(p, daemon, 300*units.Microsecond, CatApp, false)
			log("daemon")
			p.Sleep(700 * units.Microsecond)
		}
	})
	soak(k, util, CatApp, func() bool {
		log("util")
		if stop {
			r.StopChecks++
		}
		return stop
	})
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("%d events pending after the run", e.Pending())
	}
	e.KillAll()

	r.End = e.Now()
	for i, task := range []*Task{util, worker, daemon} {
		r.Tasks[i] = [2]units.Time{task.UserTime, task.SysTime}
	}
	r.Busy, r.Cats = k.BusyTime(), k.CategoryBreakdown()
	r.Engine = o.Snapshot().Det
	r.Folded = string(pr.Folded())
	return r
}

// TestSoakMatchesProcSoaker: the continuation is the process loop, event
// for event.
func TestSoakMatchesProcSoaker(t *testing.T) {
	want := runSoakScenario(t, procSoak)
	got := runSoakScenario(t, (*Kernel).Soak)

	if want.Tasks[0][0] < units.Millisecond || want.Tasks[0][1] == 0 {
		t.Fatalf("scenario too idle or too busy to tell: util user %v sys %v", want.Tasks[0][0], want.Tasks[0][1])
	}
	for i := range want.Order {
		step := "(end)"
		if i < len(got.Order) {
			step = got.Order[i]
		}
		if step != want.Order[i] {
			t.Fatalf("CPU order diverges at step %d of %d: proc %q, Soak %q", i, len(want.Order), want.Order[i], step)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Soak run differs from the proc soaker's\nproc: %+v\nSoak: %+v", brief(want), brief(got))
	}
	// It stops at the first slice boundary after the flag turns: one check
	// sees it, within a quantum plus what higher priorities took meanwhile.
	if got.StopChecks != 1 || got.End < got.StoppedAt {
		t.Fatalf("stopped() saw true %d times; stop at %v, end %v", got.StopChecks, got.StoppedAt, got.End)
	}
}

func brief(r soakRun) soakRun {
	r.Order, r.Folded = r.Order[len(r.Order)-3:], ""
	return r
}

// TestSoakSliceAllocatesNothing covers both ways a slice starts: the CPU
// was free, and the CPU was held so the grant came as an event.
func TestSoakSliceAllocatesNothing(t *testing.T) {
	e, k := newTestKernel()
	defer e.KillAll()
	util := k.NewTask("util", PrioIdle, nil)
	grabs := 0
	e.Go("contender", func(p *sim.Proc) {
		for {
			k.cpu.Acquire(p, PrioUser)
			grabs++
			p.Sleep(30 * units.Microsecond)
			k.cpu.Release()
			p.Sleep(130 * units.Microsecond)
		}
	})
	k.Soak(util, CatApp, func() bool { return false })
	for i := 0; i < 64; i++ {
		e.Step()
	}
	if n := testing.AllocsPerRun(500, func() { e.Step() }); n != 0 {
		t.Errorf("%v allocs per event, want 0", n)
	}
	if grabs < 50 || util.UserTime < 10*units.Millisecond {
		t.Fatalf("contender ran %d times, util %v: not the steady state meant", grabs, util.UserTime)
	}
}
