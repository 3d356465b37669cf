package socket_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/socket"
	"repro/internal/units"
)

// TestSocketCallsAllocNothing pins the socket layer's own allocations at
// zero per system call once a socket has warmed up: Write and Read on both
// stacks, SendTo and RecvFrom on the single-copy stack. A call's user
// region (its UIO) and the uiowCABhdrs of its M_UIO descriptors are held
// by the socket's per-direction tracker and reused, where they used to be
// built per call, two to three objects per 64 KB write. What counts is
// what the socket layer allocates itself or through the descriptor
// constructors it calls (mem, mbuf, pool); what the transport, driver and
// engine below allocate for the packets is theirs, and has its own pins.
func TestSocketCallsAllocNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const warm, calls = 256, 64
	for _, mode := range []socket.Mode{socket.ModeSingleCopy, socket.ModeUnmodified} {
		t.Run(fmt.Sprintf("tcp/mode%d", mode), func(t *testing.T) {
			tb, a, b := rig(t, mode)
			defer tb.Eng.KillAll()
			lis := b.Stk.Listen(port)
			var writes, reads int
			rt := b.NewUserTask("rcv", 0)
			tb.Eng.Go("rcv", func(p *sim.Proc) {
				s := b.Accept(p, rt, lis)
				buf := rt.Space.Alloc(64*units.KB, 8)
				for {
					if _, err := s.Read(p, buf); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					reads++
				}
			})
			st := a.NewUserTask("snd", 0)
			tb.Eng.Go("snd", func(p *sim.Proc) {
				s, err := a.Dial(p, st, addrB, port)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				buf := st.Space.Alloc(64*units.KB, 8)
				for {
					if err := s.WriteAll(p, buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					writes++
				}
			})
			until := func(n int) {
				for (writes < n || reads < n) && tb.Eng.Step() {
				}
			}
			until(warm)
			if objs := socketAllocs(func() { until(warm + calls) }); len(objs) > 0 {
				t.Errorf("%d writes and their reads: the socket layer allocated\n%s", calls, strings.Join(objs, "\n"))
			}
		})
	}
	t.Run("udp", func(t *testing.T) {
		tb, a, b := rig(t, socket.ModeSingleCopy)
		defer tb.Eng.KillAll()
		var sends, recvs int
		rt := b.NewUserTask("rcv", 0)
		rx := socket.MustDGram(b.K, b.VM, rt, b.Stk, port, b.SocketConfig())
		tb.Eng.Go("rcv", func(p *sim.Proc) {
			buf := rt.Space.Alloc(16*units.KB, 8)
			for {
				rx.RecvFrom(p, buf)
				recvs++
			}
		})
		st := a.NewUserTask("snd", 0)
		tx := socket.MustDGram(a.K, a.VM, st, a.Stk, 0, a.SocketConfig())
		tb.Eng.Go("snd", func(p *sim.Proc) {
			buf := st.Space.Alloc(16*units.KB, 8)
			for {
				if err := tx.SendTo(p, buf, addrB, port); err != nil {
					t.Errorf("sendto: %v", err)
					return
				}
				sends++
				p.Sleep(500 * units.Microsecond) // the reader keeps up: no drops
			}
		})
		until := func(n int) {
			for (sends < n || recvs < n) && tb.Eng.Step() {
			}
		}
		until(warm)
		if objs := socketAllocs(func() { until(warm + calls) }); len(objs) > 0 {
			t.Errorf("%d datagrams sent and received: the socket layer allocated\n%s", calls, strings.Join(objs, "\n"))
		}
	})
}

// socketAllocs runs f with every allocation profiled and returns, one line
// per allocation site, the objects the socket layer allocated: those whose
// stack, read outwards from the allocation, reaches a frame of package
// socket through nothing but the runtime and the packages that build its
// descriptors (mem, mbuf, pool).
func socketAllocs(f func()) []string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocSites()
	f()
	var out []string
	for stk, n := range allocSites() {
		if n -= before[stk]; n == 0 {
			continue
		}
		if fn := allocatingSocketFunc(stk); fn != "" {
			out = append(out, fmt.Sprintf("  %d objects from %s", n, fn))
		}
	}
	return out
}

// allocatingSocketFunc returns the function of package socket, and its
// line, that made the allocation with stack stk, or "" when the allocation
// is not the socket layer's.
func allocatingSocketFunc(stk [32]uintptr) string {
	frames := runtime.CallersFrames(stk[:])
	for {
		fr, more := frames.Next()
		switch fn := fr.Function; {
		case strings.HasPrefix(fn, "repro/internal/socket."):
			return fmt.Sprintf("%s (%s:%d)", fn, fr.File, fr.Line)
		case !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "repro/internal/mem.") &&
			!strings.HasPrefix(fn, "repro/internal/mbuf.") && !strings.HasPrefix(fn, "repro/internal/pool."):
			return ""
		}
		if !more {
			return ""
		}
	}
}

// allocSites returns the objects allocated so far per allocation stack,
// after two collections have published every allocation made before the
// call.
func allocSites() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 256)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+256)
	}
	sites := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		sites[r.Stack0] += r.AllocObjects
	}
	return sites
}
