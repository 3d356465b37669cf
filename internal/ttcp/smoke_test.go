package ttcp_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/socket"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

func run(t *testing.T, mode socket.Mode, total, rw units.Size) ttcp.Result {
	t.Helper()
	tb := core.NewTestbed(7)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	return ttcp.Run(tb, a, b, ttcp.Params{
		Total: total, RWSize: rw, WithUtil: true, WithBackground: true,
	})
}

func TestSmoke(t *testing.T) {
	un := run(t, socket.ModeUnmodified, 8*units.MB, 64*units.KB)
	sc := run(t, socket.ModeSingleCopy, 8*units.MB, 64*units.KB)
	t.Logf("unmod: %v", un)
	t.Logf("  breakdown: %v", un.Snd.Breakdown)
	t.Logf("single: %v", sc)
	t.Logf("  breakdown: %v", sc.Snd.Breakdown)
	t.Logf("true util: un=%.2f sc=%.2f", un.Snd.TrueUtilization, sc.Snd.TrueUtilization)
}

func TestRawSmoke(t *testing.T) {
	tb := core.NewTestbed(8)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), CABNode: 1, NoDriver: true})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), CABNode: 2, NoDriver: true})
	res := ttcp.RunRaw(tb, a, b, ttcp.Params{Total: 16 * units.MB, RWSize: 32 * units.KB, WithUtil: true})
	t.Logf("raw 32KB: %v", res)
	if r := res.Throughput.Mbit(); r < 120 || r > 160 {
		t.Fatalf("raw throughput %.1f, want ~140 (microcode-limited)", r)
	}
}

func TestUDPSmoke(t *testing.T) {
	tb := core.NewTestbed(9)
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	res := ttcp.RunUDP(tb, a, b, ttcp.Params{Total: 8 * units.MB, RWSize: 16 * units.KB, WithUtil: true})
	t.Logf("udp 16KB: %v loss=%.3f", res.Result, res.LossFraction)
	if res.LossFraction > 0.2 {
		t.Fatalf("loss %.2f too high on an idle fabric", res.LossFraction)
	}
	if r := res.Throughput.Mbit(); r < 40 || r > 160 {
		t.Fatalf("udp throughput %.1f out of plausible range", r)
	}
}

// marginal returns what moving payload costs the host in allocation:
// bytes allocated per payload byte, and heap objects per 32 KB data
// segment. Differencing a 32 MB against a 16 MB transfer cancels testbed
// set-up (address spaces, socket buffers).
func marginal(t *testing.T, mode socket.Mode) (perByte, perSeg float64) {
	t.Helper()
	allocated := func(total units.Size) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, mode, total, 64*units.KB)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	sb, so := allocated(16 * units.MB)
	bb, bo := allocated(32 * units.MB)
	perByte = (float64(bb) - float64(sb)) / float64(16*units.MB)
	perSeg = (float64(bo) - float64(so)) / float64(16*units.MB/(32*units.KB))
	t.Logf("16 MB: %d B in %d objects, 32 MB: %d B in %d objects; marginal %.3f B per payload byte, %.1f objects per 32 KB segment",
		sb, so, bb, bo, perByte, perSeg)
	return perByte, perSeg
}

// TestSingleCopyAllocationBudget pins the host-memory cost of moving a
// payload byte on the single-copy path: packet and frame buffers are
// recycled and the receiver adopts the frame, so what is left is
// per-packet bookkeeping. The limit is 0.25 bytes allocated per payload
// byte; three fresh buffers per packet cost about 3.9.
func TestSingleCopyAllocationBudget(t *testing.T) {
	if perByte, _ := marginal(t, socket.ModeSingleCopy); perByte > 0.25 {
		t.Fatalf("%.3f host bytes allocated per payload byte, budget 0.25", perByte)
	}
}

// TestSingleCopyMallocBudget pins the heap objects one 32 KB data segment
// costs end to end on the single-copy path — socket, transport, driver,
// adaptor and wire on both hosts, with its ACK — at the 28.5 that
// descriptors built once per packet per layer need, plus 10 %. With a
// closure per SDMA request and per wire event, an iovec slice per UIO walk
// and a signal per frame it was 93. Any of those coming back breaks it.
func TestSingleCopyMallocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 28.5 * 1.1
	if _, perSeg := marginal(t, socket.ModeSingleCopy); perSeg > budget {
		t.Fatalf("%.1f heap objects per 32 KB data segment, budget %.1f", perSeg, budget)
	}
}

// TestUnmodifiedAllocationBudget is the same pin for the unmodified path,
// whose payload lives in kernel clusters on both hosts: the clusters are
// recycled and filled in place, so again only bookkeeping is left (mbuf
// headers, gather lists). A staging buffer and a cluster per 8 KB written
// plus a receive buffer per cluster cost about 3.2.
func TestUnmodifiedAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is given")
	}
	if perByte, _ := marginal(t, socket.ModeUnmodified); perByte > 0.5 {
		t.Fatalf("%.3f host bytes allocated per payload byte, budget 0.5", perByte)
	}
}
