// Package ttcp reimplements the paper's measurement methodology (Section
// 7.1): a ttcp-style bulk-transfer benchmark measuring user-process to
// user-process throughput, plus the compute-bound low-priority `util`
// process used to estimate the CPU utilization of communication.
//
// Because interrupt-driven work (ACK handling and the transmissions it
// triggers) is charged to whatever process happens to be running, ttcp's
// own CPU time understates the communication cost. util soaks up all
// spare cycles at low priority, so any system time it accumulates is
// misattributed communication work, and
//
//	utilization = (ttcp_user + ttcp_sys + util_sys) /
//	              (ttcp_user + ttcp_sys + util_sys + util_user)
//
// estimates the fraction of the CPU communication consumes. A background
// daemon consumes a further ~7% of cycles that are charged to neither
// process — the "unaccounted" time the paper reports — which the ratio
// form of the formula charges proportionally, as the paper assumes.
package ttcp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// The receiver's ports: Run listens on tcpPort, RunUDP binds udpPort.
const (
	tcpPort = 5010
	udpPort = 5011
)

// Params configures one transfer.
type Params struct {
	// Total is the byte count to move.
	Total units.Size
	// RWSize is the per-call read/write size (the x axis of Figures 5
	// and 6).
	RWSize units.Size
	// Window overrides the TCP window / socket buffer size (default the
	// experiment's 512 KB).
	Window units.Size
	// WithUtil runs the util methodology (else only ground-truth
	// accounting is reported).
	WithUtil bool
	// WithBackground runs the ~7% background daemon load.
	WithBackground bool
	// UIOThreshold is passed to the sender's socket (0 = always
	// single-copy, the paper's measured configuration).
	UIOThreshold units.Size
	// Tolerant lets the transfer end early with a typed error instead of
	// panicking — the mode fault-injection runs use, where a connection
	// legitimately dies (adaptor reset, liveness timeout) and the
	// interesting output is which error surfaced. Benchmarks leave it
	// off: an incomplete clean run is a bug.
	Tolerant bool
}

// HostStats carries one side's measurements.
type HostStats struct {
	TTCPUser, TTCPSys units.Time
	UtilUser, UtilSys units.Time
	// Utilization is the paper-methodology estimate.
	Utilization float64
	// TrueUtilization is the simulator's ground truth: CPU busy time in
	// communication categories over elapsed time.
	TrueUtilization float64
	// Efficiency = throughput / utilization: the Mbit/s the host could
	// sustain at full CPU.
	Efficiency units.Rate
	// Breakdown is CPU time by accounting category.
	Breakdown map[string]units.Time
}

// Result is one transfer's outcome.
type Result struct {
	Bytes      units.Size
	Elapsed    units.Time
	Throughput units.Rate
	Snd, Rcv   HostStats
	// SndErr / RcvErr are the errors that ended each side early ("" for
	// a clean run; only possible with Params.Tolerant, or from a refused
	// UDP send).
	SndErr, RcvErr string
}

func (r Result) String() string {
	return fmt.Sprintf("%v in %v = %v (snd util %.2f eff %v; rcv util %.2f eff %v)",
		r.Bytes, r.Elapsed, r.Throughput,
		r.Snd.Utilization, r.Snd.Efficiency,
		r.Rcv.Utilization, r.Rcv.Efficiency)
}

// side bundles the per-host measurement context.
type side struct {
	h        *core.Host
	ttcpTask *kern.Task
	utilTask *kern.Task
	bgdTask  *kern.Task
	stop     bool
}

// startUtil runs the compute-bound low-priority soaker in quantum-sized
// slices so higher-priority work preempts it.
func (s *side) startUtil() {
	s.h.K.Soak(s.utilTask, kern.CatApp, func() bool { return s.stop })
}

// startBackground runs the daemons responsible for the paper's 7-8% of
// unaccounted time.
func (s *side) startBackground(tb *core.Testbed) {
	tb.Eng.Go(s.h.Name+"/bgd", func(p *sim.Proc) {
		for !s.stop {
			s.h.K.Work(p, s.bgdTask, 300*units.Microsecond, kern.CatApp, false)
			p.Sleep(4 * units.Millisecond)
		}
	})
}

// snapshot computes the measurement window deltas for one side.
func (s *side) snapshot(elapsed units.Time, thr units.Rate,
	t0 taskTimes) HostStats {
	hs := HostStats{
		TTCPUser: s.ttcpTask.UserTime - t0.ttcpUser,
		TTCPSys:  s.ttcpTask.SysTime - t0.ttcpSys,
		UtilUser: s.utilTask.UserTime - t0.utilUser,
		UtilSys:  s.utilTask.SysTime - t0.utilSys,
	}
	num := hs.TTCPUser + hs.TTCPSys + hs.UtilSys
	den := num + hs.UtilUser
	if den > 0 {
		hs.Utilization = float64(num) / float64(den)
	}
	// Ground truth: all CPU time except the util and background tasks'
	// own user-level work is communication support here.
	comm := s.h.K.BusyTime() - t0.busy -
		(hs.UtilUser) - (s.bgdTask.UserTime - t0.bgdUser)
	if elapsed > 0 {
		hs.TrueUtilization = float64(comm) / float64(elapsed)
	}
	if hs.Utilization > 0 {
		hs.Efficiency = units.Rate(float64(thr) / hs.Utilization)
	}
	hs.Breakdown = s.h.K.CategoryBreakdown()
	return hs
}

type taskTimes struct {
	ttcpUser, ttcpSys, utilUser, utilSys, bgdUser, busy units.Time
}

func (s *side) times() taskTimes {
	return taskTimes{
		ttcpUser: s.ttcpTask.UserTime, ttcpSys: s.ttcpTask.SysTime,
		utilUser: s.utilTask.UserTime, utilSys: s.utilTask.SysTime,
		bgdUser: s.bgdTask.UserTime, busy: s.h.K.BusyTime(),
	}
}

// newSide wraps h's ttcp task with the util and bgd tasks, created after
// it.
func newSide(h *core.Host, ttcpTask *kern.Task) *side {
	return &side{h: h, ttcpTask: ttcpTask,
		utilTask: h.K.NewTask("util", kern.PrioIdle, nil),
		bgdTask:  h.K.NewTask("bgd", kern.PrioKern, nil)}
}

// meter is one run's measurement harness: both sides, the window
// [t0, t1) and the bytes received in it.
type meter struct {
	tb         *core.Testbed
	ss, rs     *side
	t0, t1     units.Time
	snd0, rcv0 taskTimes
	received   units.Size
}

func newMeter(tb *core.Testbed, ss, rs *side) *meter {
	return &meter{tb: tb, ss: ss, rs: rs, snd0: ss.times(), rcv0: rs.times()}
}

// begin opens the measurement window.
func (m *meter) begin(p *sim.Proc) {
	m.t0 = p.Now()
	m.snd0, m.rcv0 = m.ss.times(), m.rs.times()
}

// end closes the window and stops the soakers and the series, so the
// engine runs dry.
func (m *meter) end(p *sim.Proc) {
	m.t1 = p.Now()
	m.ss.stop, m.rs.stop = true, true
	m.tb.StopSeries()
}

// run starts the soakers pr asks for, drives the engine dry and measures
// the window.
func (m *meter) run(pr Params) Result {
	if pr.WithUtil {
		m.ss.startUtil()
		m.rs.startUtil()
	}
	if pr.WithBackground {
		m.ss.startBackground(m.tb)
		m.rs.startBackground(m.tb)
	}
	m.tb.Eng.Run()
	m.tb.Eng.KillAll()

	elapsed := m.t1 - m.t0
	res := Result{
		Bytes:      m.received,
		Elapsed:    elapsed,
		Throughput: units.RateOf(m.received, elapsed),
	}
	res.Snd = m.ss.snapshot(elapsed, res.Throughput, m.snd0)
	res.Rcv = m.rs.snapshot(elapsed, res.Throughput, m.rcv0)
	return res
}

// userTask creates a user task on h whose address space holds need bytes
// of buffers, rounded up to whole pages (at least one). The space's
// backing is zeroed live heap, so it is sized to what the run carves: idle
// slack is memory cleared for nothing that also raises the collector's
// goal.
func userTask(h *core.Host, name string, need units.Size) *kern.Task {
	page := h.K.Mach.PageSize
	return h.NewUserTask(name, max(page, (need+page-1)/page*page))
}

// fill writes the sender's test pattern into b.
func fill(b []byte) {
	for i := range b {
		b[i] = byte(i)
	}
}

// Run performs one ttcp transfer from snd to rcv over their configured
// stacks and returns the measurements. The testbed engine is driven to
// completion.
func Run(tb *core.Testbed, snd, rcv *core.Host, pr Params) Result {
	if pr.Window == 0 {
		pr.Window = 512 * units.KB
	}

	ss := newSide(snd, userTask(snd, "ttcp-snd", pr.RWSize))
	rs := newSide(rcv, userTask(rcv, "ttcp-rcv", pr.RWSize))
	m := newMeter(tb, ss, rs)

	lis := rcv.Stk.Listen(tcpPort)
	var sndErr, rcvErr string

	// Receiver: accept and read until the FIN.
	tb.Eng.Go("ttcp-rcv", func(p *sim.Proc) {
		cfg := rcv.SocketConfig()
		s := socket.Accept(p, rcv.K, rcv.VM, rs.ttcpTask, lis, cfg)
		buf := rs.ttcpTask.Space.Alloc(pr.RWSize, 8)
		for {
			n, err := s.Read(p, buf)
			m.received += n
			// Trivial app-level work per read (ttcp counts bytes).
			rcv.K.Work(p, rs.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
			if err != nil {
				if pr.Tolerant && err != socket.ErrEOF {
					rcvErr = err.Error()
					s.Conn.Abort(rcv.K.TaskCtx(p, rs.ttcpTask))
				}
				break
			}
		}
		m.end(p)
	})

	// Sender: connect, then stream Total bytes from one reused buffer.
	tb.Eng.Go("ttcp-snd", func(p *sim.Proc) {
		cfg := snd.SocketConfig()
		cfg.UIOThreshold = pr.UIOThreshold
		conn, err := snd.Stk.Connect(snd.K.TaskCtx(p, ss.ttcpTask), rcv.Cfg.Addr, tcpPort)
		if err != nil {
			if pr.Tolerant {
				sndErr = err.Error()
				return
			}
			panic("ttcp: connect failed: " + err.Error())
		}
		conn.SndLimit = pr.Window
		conn.RcvLimit = pr.Window
		s := socket.NewSocket(snd.K, snd.VM, ss.ttcpTask, conn, cfg)

		// Start the measurement window at first write.
		m.begin(p)

		buf := ss.ttcpTask.Space.Alloc(pr.RWSize, 8)
		fill(buf.Bytes())
		for sent := units.Size(0); sent < pr.Total; sent += pr.RWSize {
			snd.K.Work(p, ss.ttcpTask, 2*units.Microsecond, kern.CatApp, false)
			if err := s.WriteAll(p, buf); err != nil {
				if pr.Tolerant {
					// The connection died under fault; reset it so the
					// receiver learns promptly instead of filling a
					// dead window, and report the typed error.
					sndErr = err.Error()
					s.Conn.Abort(snd.K.TaskCtx(p, ss.ttcpTask))
					return
				}
				panic("ttcp: write failed: " + err.Error())
			}
		}
		s.Close(p)
	})

	res := m.run(pr)
	if res.Bytes < pr.Total && !pr.Tolerant {
		panic(fmt.Sprintf("ttcp: transfer incomplete: %v of %v", res.Bytes, pr.Total))
	}
	res.SndErr, res.RcvErr = sndErr, rcvErr
	return res
}
