package main

import (
	"runtime"
	"time"

	"repro/internal/cab"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/fabric"
	"repro/internal/hippi"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/obs/ledger"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// A driver is one isolated loop over a single layer's exported functions:
// what one operation of that layer costs the host when nothing else runs.
type driver struct {
	// name is the metric stem: name_ns (or nsName) and, when allocs is
	// set, name_allocs.
	name   string
	nsName string
	allocs bool
	// per divides the per-operation time (32 for a 32 KB operation
	// reported per KB); 0 means 1.
	per float64
	// maxN caps the operations of one round, for state that fills up.
	maxN int
	// prep builds the layer's state once and returns the loop — run(n)
	// performs n operations — and a function that releases the state.
	prep func() (run func(n int), done func())
}

func (d driver) nsMetric() string {
	if d.nsName != "" {
		return d.nsName
	}
	return d.name + "_ns"
}

func (d driver) nsUnit() string {
	if d.per > 1 {
		return "ns/KB"
	}
	return "ns"
}

// Sinks keep the compiler from discarding a driver's calls.
var (
	sinkU32  uint32
	sinkBool bool
	sinkMbuf *mbuf.Mbuf
	sinkErr  error
)

const (
	driverRounds = 5
	// roundTarget is how long one round should run: long enough that the
	// clock's resolution and the loop's start-up do not show.
	roundTarget = 20 * time.Millisecond
	// tinyRoundTarget keeps the smoke test short; its numbers mean nothing.
	tinyRoundTarget = 200 * time.Microsecond
)

// stepN dispatches n events.
func stepN(eng *sim.Engine, n int) {
	for i := 0; i < n; i++ {
		if !eng.Step() {
			panic("bench: driver engine ran dry")
		}
	}
}

// stepUntil dispatches events until *count has grown by n.
func stepUntil(eng *sim.Engine, count *int, n int) {
	for target := *count + n; *count < target; {
		if !eng.Step() {
			panic("bench: driver engine ran dry")
		}
	}
}

// eventLoop keeps the event heap depth events deep: every event
// reschedules itself, so one operation is one pop and one push at that
// depth.
func eventLoop(depth int) func() (func(int), func()) {
	return func() (func(int), func()) {
		eng := sim.NewEngine(1)
		for i := 0; i < depth; i++ {
			d := units.Time(1000 + 7*i%997)
			var fn func()
			fn = func() { eng.After(d, fn) }
			eng.After(d, fn)
		}
		return func(n int) { stepN(eng, n) }, func() {}
	}
}

var drivers = []driver{
	{name: "drv.sim.event", allocs: true, prep: eventLoop(1024)},
	{name: "drv.sim.event_deep", prep: eventLoop(4096)},
	{
		// One Sleep is one proc event and one goroutine hand-off each way.
		name: "drv.sim.proc_switch", allocs: true,
		prep: func() (func(int), func()) {
			eng := sim.NewEngine(1)
			eng.Go("sleeper", func(p *sim.Proc) {
				for {
					p.Sleep(1)
				}
			})
			return func(n int) { stepN(eng, n) }, eng.KillAll
		},
	},
	{
		// One operation is one Signal that wakes a waiting proc.
		name: "drv.sim.signal_wake",
		prep: func() (func(int), func()) {
			eng := sim.NewEngine(1)
			sig := sim.NewSignal(eng)
			wakes := 0
			eng.Go("waiter", func(p *sim.Proc) {
				for {
					sig.Wait(p)
					wakes++
				}
			})
			eng.Go("waker", func(p *sim.Proc) {
				for {
					sig.Signal()
					p.Sleep(1)
				}
			})
			return func(n int) { stepUntil(eng, &wakes, n) }, eng.KillAll
		},
	},
	{
		name: "drv.kern.work", allocs: true,
		prep: func() (func(int), func()) {
			eng := sim.NewEngine(1)
			k := kern.New("drv", eng, cost.Alpha400())
			task := k.NewTask("worker", kern.PrioUser, nil)
			charges := 0
			eng.Go("worker", func(p *sim.Proc) {
				for {
					k.Work(p, task, 10*units.Microsecond, kern.CatApp, false)
					charges++
				}
			})
			return func(n int) { stepUntil(eng, &charges, n) }, eng.KillAll
		},
	},
	{
		name: "drv.checksum.sum", nsName: "drv.checksum.sum_ns_per_kb", per: 32,
		prep: func() (func(int), func()) {
			buf := make([]byte, 32*units.KB)
			for i := range buf {
				buf[i] = byte(i * 7)
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					sinkU32 += checksum.Sum(buf)
				}
			}, func() {}
		},
	},
	{
		name: "drv.mbuf.copyrange", allocs: true,
		prep: func() (func(int), func()) {
			var chain *mbuf.Mbuf
			for i := 0; i < 16; i++ {
				chain = mbuf.Cat(chain, mbuf.NewCluster(make([]byte, mbuf.MCLBYTES)))
			}
			total := mbuf.ChainLen(chain)
			return func(n int) {
				for i := 0; i < n; i++ {
					sinkMbuf = mbuf.CopyRange(chain, 0, total)
					mbuf.FreeChain(sinkMbuf)
				}
			}, func() {}
		},
	},
	{
		name: "drv.wire.hdr_roundtrip",
		prep: func() (func(int), func()) {
			ip := wire.IPHdr{TotLen: 32 * units.KB, ID: 7, TTL: 64, Proto: 6, Src: addrA, Dst: addrB}
			tcp := wire.TCPHdr{SPort: 1025, DPort: 5010, Seq: 1, Ack: 2, Wnd: 512}
			b := make([]byte, wire.IPHdrLen+wire.TCPHdrLen)
			return func(n int) {
				for i := 0; i < n; i++ {
					ip.Marshal(b)
					tcp.Marshal(b[wire.IPHdrLen:])
					var gotIP wire.IPHdr
					gotIP, sinkErr = wire.ParseIPHdr(b)
					var gotTCP wire.TCPHdr
					gotTCP, sinkErr = wire.ParseTCPHdr(b[wire.IPHdrLen:])
					sinkU32 += uint32(gotIP.ID) + gotTCP.Seq
				}
			}, func() {}
		},
	},
	{
		// One 32 KB frame across the switch: source serialization, the
		// wire, delivery.
		name: "drv.hippi.send", allocs: true,
		prep: func() (func(int), func()) {
			eng := sim.NewEngine(1)
			net := hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond)
			got := 0
			net.Attach(1, func(hippi.Frame) {})
			net.Attach(2, func(hippi.Frame) { got++ })
			frame := make([]byte, 32*units.KB)
			return func(n int) {
				for i := 0; i < n; i++ {
					net.Send(1, 2, frame, nil)
					eng.Run()
				}
				sinkBool = got > 0
			}, func() {}
		},
	},
	{
		name: "drv.fabric.markce",
		prep: func() (func(int), func()) {
			frame := make([]byte, wire.LinkHdrLen+wire.IPHdrLen+64)
			wire.IPHdr{TotLen: wire.IPHdrLen + 64, TTL: 64, Proto: 6, ECN: wire.ECNECT0,
				Src: addrA, Dst: addrB}.Marshal(frame[wire.LinkHdrLen:])
			ecn := &frame[wire.LinkHdrLen+wire.ECNOff]
			return func(n int) {
				for i := 0; i < n; i++ {
					*ecn = *ecn&^0x3 | wire.ECNECT0
					sinkBool = fabric.MarkCE(frame)
				}
			}, func() {}
		},
	},
	{
		name: "drv.cab.alloc_free",
		prep: func() (func(int), func()) {
			eng := sim.NewEngine(1)
			net := hippi.NewNetwork(eng, hippi.LineRate, 5*units.Microsecond)
			c := cab.New(eng, cost.Alpha400(), net, 1, cab.DefaultConfig())
			return func(n int) {
				for i := 0; i < n; i++ {
					pk, ok := c.AllocPacket(32 * units.KB)
					if !ok {
						panic("bench: driver CAB out of network memory")
					}
					pk.Free()
				}
			}, eng.KillAll
		},
	},
	{
		// The ledger keeps at most 2^20 records, so each round gets a
		// fresh one and stays under that.
		name: "drv.ledger.touch", allocs: true, maxN: 1 << 19,
		prep: func() (func(int), func()) {
			return func(n int) {
				led := ledger.New(func() units.Time { return 0 })
				h := led.Hook("A")
				for i := 0; i < n; i++ {
					h.Touch(1, units.Size(i)*64, 64, ledger.CPUCopy, "drv", 0, 0)
				}
				sinkBool = led.Dropped() > 0
			}, func() {}
		},
	},
}

// driverResult is one driver's median round.
type driverResult struct {
	ns     float64 // per operation (or per KB)
	allocs float64 // per operation
}

// runDriver sizes a round to roundTarget, then reports the median of
// driverRounds rounds.
func runDriver(d driver, roundTarget time.Duration) driverResult {
	run, done := d.prep()
	defer done()
	n := 64
	for {
		t0 := time.Now()
		run(n)
		el := time.Since(t0)
		if el >= roundTarget/4 || (d.maxN > 0 && n >= d.maxN) {
			n = int(float64(n) * float64(roundTarget) / float64(el+1))
			break
		}
		n *= 4
	}
	if n < 1 {
		n = 1
	}
	if d.maxN > 0 && n > d.maxN {
		n = d.maxN
	}
	per := d.per
	if per == 0 {
		per = 1
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for r := 0; r < driverRounds; r++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		run(n)
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(n)/per)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return driverResult{ns: median(ns), allocs: median(allocs)}
}
