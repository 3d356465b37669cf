package kern

import (
	"testing"

	"repro/internal/obs/prof"
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
		ctx := k.TaskCtx(p, task).In("socket").WithFlow(7)
		ctx.Charge(100*units.Microsecond, CatCopy)
		ctx.In("tcp_output").Charge(50*units.Microsecond, CatProto)
		k.PostIntr("rx", func(p *sim.Proc) {
			k.IntrCtx(p).In("cabdrv_rx").Charge(20*units.Microsecond, CatDriver)
		})
	})
	e.Run()
	defer e.KillAll()
	if got, want := pr.HostTotal("host"), int64(k.BusyTime()); got != want {
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
		c := ctx.In("socket").In("tcp_output").WithFlow(5)
		_ = c
	}); n != 0 {
		t.Fatalf("disabled Ctx.In allocates %v times per op", n)
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
