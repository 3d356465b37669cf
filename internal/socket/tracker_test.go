package socket

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/tcpip"
)

// TestTrackerReuseAllocBudget pins the per-system-call DMA bookkeeping at
// zero allocations once a socket's tracker exists: each cycle takes the
// parked tracker, counts two DMAs, waits while a driver stand-in completes
// them (one as a transmit DMA, one as a copy-out), and parks it again.
func TestTrackerReuseAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	eng := sim.NewEngine(1)
	defer eng.KillAll()
	var slot, cur *tracker
	cycles := 0
	eng.Go("syscall", func(p *sim.Proc) {
		for {
			cur = take(&slot, eng)
			cur.add(2)
			cur.wait(p)
			park(&slot, cur)
			cycles++
		}
	})
	eng.Go("dma", func(p *sim.Proc) {
		for {
			p.Sleep(1)
			cur.DMADone(1)
			cur.CopyDone(1, nil)
		}
	})
	cycle := func() {
		for target := cycles + 1; cycles < target; {
			eng.Step()
		}
	}
	cycle()
	first := cur
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a reused tracker's take/wait/DMADone/park cycle allocates %v objects, want 0", allocs)
	}
	if cur != first {
		t.Fatal("the parked tracker was not reused")
	}
}

// TestTrackerParkKeepsOnlyIdle: a tracker that still counts outstanding
// DMAs (its system call was abandoned by a connection error) is not parked
// for the next call, whose count its late completions would corrupt; an
// idle one is parked with its error cleared.
func TestTrackerParkKeepsOnlyIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	var slot *tracker
	busy := take(&slot, eng)
	busy.add(5)
	park(&slot, busy)
	if slot != nil {
		t.Fatal("a tracker with DMAs outstanding was parked")
	}
	idle := take(&slot, eng)
	idle.add(5)
	idle.CopyDone(5, tcpip.ErrDeviceReset)
	idle.CopyDone(0, tcpip.ErrConnClosed)
	if idle.err != tcpip.ErrDeviceReset {
		t.Fatalf("err = %v, want the first error", idle.err)
	}
	park(&slot, idle)
	if slot != idle || idle.err != nil {
		t.Fatalf("idle tracker not parked clean: slot=%p err=%v", slot, idle.err)
	}
	if again := take(&slot, eng); again != idle || slot != nil {
		t.Fatal("take did not hand out the parked tracker")
	}
}
