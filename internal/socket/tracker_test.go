package socket

import (
	"testing"

	"repro/internal/mbuf"
	"repro/internal/mem"
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
			cur = take(&slot, eng, nil, mem.Buf{})
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
// for the next call, whose count its late completions would corrupt, and
// neither is one an M_UIO mbuf still points at; an idle one is parked with
// its error cleared.
func TestTrackerParkKeepsOnlyIdle(t *testing.T) {
	eng := sim.NewEngine(1)
	var slot *tracker
	busy := take(&slot, eng, nil, mem.Buf{})
	busy.add(5)
	park(&slot, busy)
	if slot != nil {
		t.Fatal("a tracker with DMAs outstanding was parked")
	}
	idle := take(&slot, eng, nil, mem.Buf{})
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
	if again := take(&slot, eng, nil, mem.Buf{}); again != idle || slot != nil {
		t.Fatal("take did not hand out the parked tracker")
	}

	// Idle, but a segment copy cut from the call's descriptor is still
	// queued: the tracker keeps its UIO and headers until the copy goes.
	cut := take(&slot, eng, nil, mem.Buf{Len: 8})
	m := mbuf.NewUIO(&cut.uio, 0, 8, cut.hdr(1))
	cp := mbuf.CopyRange(m, 0, 4)
	m.Free()
	park(&slot, cut)
	if slot != nil || cut.uio.Total() != 8 || len(cut.hdrs) != 1 {
		t.Fatal("a tracker whose descriptor a segment copy still points at was parked")
	}
	cp.Free()
	if n := cut.hdrs[0].Refs(); n != 0 {
		t.Fatalf("header refs = %d after every M_UIO mbuf was freed", n)
	}
}
