package kern

import (
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/obs/prof"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/units"
)

// TestProfiledChargesSumToBusy asserts the exact-sum invariant at the
// kernel level: every nanosecond charged through any path — Work,
// layered Ctx.Charge in task and interrupt context, interrupt dispatch
// overhead — lands in
// exactly one profile node, so the tree total equals CPU busy time.
func TestProfiledChargesSumToBusy(t *testing.T) {
	e, k := newTestKernel()
	pr := prof.New(CategoryNames())
	k.Prof = pr.Host("host")
	task := k.NewTask("ttcp", PrioUser, nil)
	e.Go("w", func(p *sim.Proc) {
		k.Work(p, task, 300*units.Microsecond, CatApp, false)
		ctx := k.TaskCtx(p, task).In(obs.LayerSocket).WithFlow(7)
		ctx.Charge(100*units.Microsecond, CatCopy)
		ctx.In(obs.LayerTCPOutput).Charge(50*units.Microsecond, CatProto)
		k.PostIntr(func(p *sim.Proc) {
			k.IntrCtx(p).In(obs.LayerCabdrvRx).Charge(20*units.Microsecond, CatDriver)
		})
	})
	e.Run()
	defer e.KillAll()
	if got, want := k.Prof.TreeTotal(), int64(k.BusyTime()); got != want {
		t.Fatalf("profile total %d != busy %d", got, want)
	}
	folded := string(pr.Folded())
	for _, want := range []string{
		"host;ttcp;app ",
		"host;ttcp;socket;copy ",
		"host;ttcp;socket;tcp_output;proto ",
		"host;intr;cabdrv_rx;driver ",
		"host;intr;intr ", // interrupt dispatch overhead
	} {
		if !contains(folded, want) {
			t.Fatalf("folded output missing %q:\n%s", want, folded)
		}
	}
}

// TestCtxInDisabledIsFree asserts the disabled profiler costs nothing:
// Ctx.In/WithFlow allocate nothing and charge timing is unchanged.
func TestCtxInDisabledIsFree(t *testing.T) {
	e, k := newTestKernel()
	task := k.NewTask("ttcp", PrioUser, nil)
	var ctx Ctx
	e.Go("w", func(p *sim.Proc) {
		ctx = k.TaskCtx(p, task)
	})
	e.Run()
	defer e.KillAll()
	if n := testing.AllocsPerRun(100, func() {
		c := ctx.In(obs.LayerSocket).In(obs.LayerTCPOutput).WithFlow(5)
		_ = c
	}); n != 0 {
		t.Fatalf("disabled Ctx.In allocates %v times per op", n)
	}
}

// TestCtxInEnabledAllocFree: with a profiler node and a ledger hook
// attached, entering layers binds each frame once; after that a context
// entering the same layers allocates nothing.
func TestCtxInEnabledAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e, k := newTestKernel()
	k.Prof = prof.New(CategoryNames()).Host("host")
	k.Led = ledger.New(e.Now).Hook("host")
	task := k.NewTask("ttcp", PrioUser, nil)
	var ctx Ctx
	e.Go("w", func(p *sim.Proc) {
		ctx = k.TaskCtx(p, task)
	})
	e.Run()
	defer e.KillAll()
	enter := func() { _ = ctx.In(obs.LayerSocket).In(obs.LayerTCPOutput).WithFlow(5) }
	enter()
	if n := testing.AllocsPerRun(100, enter); n != 0 {
		t.Fatalf("enabled Ctx.In allocates %v times per op after the first bind", n)
	}
}

// TestCtxFitsSixWords pins the context's size: it is copied into every
// layer's call, so it carries only what those calls read.
func TestCtxFitsSixWords(t *testing.T) {
	if n := unsafe.Sizeof(Ctx{}); n > 48 {
		t.Fatalf("kern.Ctx is %d bytes, want at most 48", n)
	}
}

// TestOneLayerTable: every layer has one name. The ledger records it under
// the id that is its enum value, the profiler names its frame after it,
// and both read the name its String gives.
func TestOneLayerTable(t *testing.T) {
	e, k := newTestKernel()
	pr := prof.New(CategoryNames())
	k.Prof = pr.Host("host")
	led := ledger.New(e.Now)
	k.Led = led.Hook("host")
	task := k.NewTask("ttcp", PrioUser, nil)
	e.Go("w", func(p *sim.Proc) {
		for l := obs.LayerNone + 1; l < obs.NumLayers; l++ {
			ctx := k.TaskCtx(p, task).In(l)
			ctx.Charge(units.Microsecond, CatProto)
			ctx.ChecksumCharge(1, 1, StreamSeg(1, 0))
		}
	})
	e.Run()
	defer e.KillAll()
	recs := led.Records()
	folded := pr.Folded()
	for l := obs.LayerNone + 1; l < obs.NumLayers; l++ {
		name := l.String()
		if name == "" {
			t.Fatalf("layer %d has no name", l)
		}
		if got := led.Name(obs.Name(l)); got != name {
			t.Errorf("layer %d is %q in the ledger's table, %q by its String", l, got, name)
		}
		if r := recs[l-1]; r.Layer != obs.Name(l) {
			t.Errorf("a touch under %s recorded layer %d (%q), want %d", name, r.Layer, led.Name(r.Layer), l)
		}
		if frame := "host;ttcp;" + name + ";proto "; !contains(folded, frame) {
			t.Errorf("profile has no frame %q:\n%s", frame, folded)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
