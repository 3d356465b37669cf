package ttcp_test

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/race"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// run moves total bytes in rw-sized writes between two hosts; enable,
// when set, turns recorders on before the hosts are added.
func run(t *testing.T, mode socket.Mode, total, rw units.Size, enable func(*core.Testbed)) ttcp.Result {
	t.Helper()
	tb := core.NewTestbed(7)
	if enable != nil {
		enable(tb)
	}
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: mode, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: mode, CABNode: 2})
	tb.RouteCAB(a, b)
	return ttcp.Run(tb, a, b, ttcp.Params{
		Total: total, RWSize: rw, WithUtil: true, WithBackground: true,
	})
}

func TestSmoke(t *testing.T) {
	un := run(t, socket.ModeUnmodified, 8*units.MB, 64*units.KB, nil)
	sc := run(t, socket.ModeSingleCopy, 8*units.MB, 64*units.KB, nil)
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

// TestUDPOversizeEnds: a write longer than one IPv4 datagram is refused
// before it is mapped, pinned or tracked, and RunUDP returns with the
// refusal in SndErr. It used to wedge: the sender pinned and tracked the
// buffer, the stack freed the refused chain without telling it, and the
// utilization soakers kept the engine running forever.
func TestUDPOversizeEnds(t *testing.T) {
	for _, mode := range []socket.Mode{socket.ModeSingleCopy, socket.ModeUnmodified} {
		tb := core.NewTestbed(9)
		a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001), Mode: mode, CABNode: 1})
		b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002), Mode: mode, CABNode: 2})
		tb.RouteCAB(a, b)
		done := make(chan ttcp.UDPResult, 1)
		go func() {
			done <- ttcp.RunUDP(tb, a, b, ttcp.Params{Total: 256 * units.KB, RWSize: 64 * units.KB, WithUtil: true, WithBackground: true})
		}()
		select {
		case res := <-done:
			if res.SndErr != tcpip.ErrMsgSize.Error() {
				t.Errorf("mode %v: SndErr %q, want %q", mode, res.SndErr, tcpip.ErrMsgSize)
			}
			if res.Received != 0 || a.Stk.Stats.UDPOversize != 1 {
				t.Errorf("mode %v: received %v, %d refusals; want nothing sent and one refusal",
					mode, res.Received, a.Stk.Stats.UDPOversize)
			}
		case <-time.After(time.Minute):
			t.Fatalf("mode %v: RunUDP of 64 KB datagrams did not return", mode)
		}
	}
}

// marginal returns what moving payload costs the host in allocation:
// bytes allocated per payload byte, and heap objects per 32 KB data
// segment. Differencing a 32 MB against a 16 MB transfer cancels testbed
// set-up (address spaces, socket buffers). enable is passed on to run.
func marginal(t *testing.T, mode socket.Mode, enable func(*core.Testbed)) (perByte, perSeg float64) {
	t.Helper()
	allocated := func(total units.Size) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, mode, total, 64*units.KB, enable)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	sb, so := allocated(16 * units.MB)
	bb, bo := allocated(32 * units.MB)
	perByte = (float64(bb) - float64(sb)) / float64(16*units.MB)
	perSeg = (float64(bo) - float64(so)) / float64(16*units.MB/(32*units.KB))
	t.Logf("16 MB: %d B in %d objects, 32 MB: %d B in %d objects; marginal %.3f B per payload byte, %.3f objects per 32 KB segment",
		sb, so, bb, bo, perByte, perSeg)
	return perByte, perSeg
}

// TestSingleCopyAllocationBudget pins the host-memory cost of moving a
// payload byte on the single-copy path: packet and frame buffers are
// recycled and the receiver adopts the frame, so what is left is
// per-packet bookkeeping. The limit is 0.25 bytes allocated per payload
// byte; three fresh buffers per packet cost about 3.9.
func TestSingleCopyAllocationBudget(t *testing.T) {
	if perByte, _ := marginal(t, socket.ModeSingleCopy, nil); perByte > 0.25 {
		t.Fatalf("%.3f host bytes allocated per payload byte, budget 0.25", perByte)
	}
}

// TestSingleCopyMallocBudget pins the heap objects one 32 KB data segment
// costs end to end on the single-copy path — socket, transport, driver,
// adaptor and wire on both hosts, with its ACK. Every per-packet record
// comes from a free list, each socket call reuses its tracker's UIO and
// uiowCABhdrs, and the adaptor's auto-DMA buffer queue is a ring, so what
// is left, within ±0.02 of zero, is the counting's own scatter of a few
// objects per run (map buckets, the runtime). The budget is 0.05: 10 %
// over the measured value would sit inside that scatter. The auto-DMA
// queue regrowing every forty-odd segments cost 0.01 to 0.03; each 64 KB
// write building its own UIO and uiowCABhdrs, 2.53; a fresh record per
// packet per layer, 28.5; a closure per SDMA request and per wire event,
// an iovec slice per UIO walk and a signal per frame, 93. Any of those
// but the first coming back breaks it.
func TestSingleCopyMallocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 0.05
	if _, perSeg := marginal(t, socket.ModeSingleCopy, nil); perSeg > budget {
		t.Fatalf("%.3f heap objects per 32 KB data segment, budget %.3f", perSeg, budget)
	}
}

// TestUnmodifiedAllocationBudget is the same pin for the unmodified path,
// whose payload lives in kernel clusters on both hosts: the clusters are
// recycled and filled in place, so again only bookkeeping is left (mbuf
// headers, gather lists). A staging buffer and a cluster per 8 KB written
// plus a receive buffer per cluster cost about 3.2.
func TestUnmodifiedAllocationBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	if perByte, _ := marginal(t, socket.ModeUnmodified, nil); perByte > 0.5 {
		t.Fatalf("%.3f host bytes allocated per payload byte, budget 0.5", perByte)
	}
}

// TestUnmodifiedMallocBudget pins the heap objects one 32 KB data segment
// costs end to end on the unmodified path at 0.05, the same bound as the
// single-copy path's (TestSingleCopyMallocBudget): every per-packet record
// comes from a free list and the packet header mbuf carries the flow tag,
// so what is left is the counting's own scatter. A packet header allocated
// per data segment only to carry the flow tag cost 1.006.
func TestUnmodifiedMallocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 0.05
	if _, perSeg := marginal(t, socket.ModeUnmodified, nil); perSeg > budget {
		t.Fatalf("%.3f heap objects per 32 KB data segment, budget %.3f", perSeg, budget)
	}
}

// allRecorders turns on every recorder the bulk_recorders benchmark runs:
// telemetry, the causal recorder, the profiler, the ledger, netobs and the
// utilization series.
func allRecorders(tb *core.Testbed) {
	tb.EnableTelemetry()
	tb.EnableCritPath()
	tb.EnableProfiling()
	tb.EnableLedger()
	tb.EnableNetObs()
	tb.EnableSeries(0)
}

// TestRecordersMallocBudget pins the heap objects one 32 KB data segment
// costs on the single-copy path with every recorder on, at the measured
// 2.32 plus 10 %. That is the trace's per-packet objects (the spans, and
// the mbuf headers that carry some of them): the bare path costs next to
// nothing (TestSingleCopyMallocBudget), and this was 4.8 while each write
// built its own UIO and uiowCABhdrs. The records themselves cost next to
// nothing too: the recorders' logs grow in chunks that are never copied,
// and the series sampler writes each tick into its ring in place. With
// logs that were slices grown by append and a fresh row per tick it was 57.
func TestRecordersMallocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2.32 * 1.1
	if _, perSeg := marginal(t, socket.ModeSingleCopy, allRecorders); perSeg > budget {
		t.Fatalf("%.1f heap objects per 32 KB data segment with every recorder on, budget %.1f", perSeg, budget)
	}
}
