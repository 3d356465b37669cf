package tcpip

import (
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/units"
)

// TestDeviceResetTearsDownInKeyOrder: an adaptor reset tears down every
// connection holding outboard data, and each teardown wakes that
// connection's blocked reader. Five such connections, registered out of
// order, must be torn down in connection-key order on every run, not in
// map order.
func TestDeviceResetTearsDownInKeyOrder(t *testing.T) {
	ports := []uint16{5003, 5001, 5005, 5002, 5004}
	want := slices.Clone(ports)
	slices.Sort(want)
	for run := 0; run < 20; run++ {
		r := newRig(t, 62)
		dead := true
		var woke []uint16
		for _, lp := range ports {
			c := r.sa.newConn(connKey{raddr: r.sb.Addr, lport: lp, rport: 80})
			c.state = StateEstablished
			c.sndBuf = wcabDatagram(512, &dead).Chain
			r.eng.Go("reader", func(p *sim.Proc) {
				c.WaitRcvData(p)
				woke = append(woke, lp)
			})
		}
		r.eng.Go("reset", func(p *sim.Proc) {
			p.Sleep(units.Microsecond)
			r.sa.DeviceReset(r.ka.TaskCtx(p, r.ka.KernelTask), r.ia)
		})
		r.eng.Run()
		r.eng.KillAll()
		if got := r.sa.Stats.TCPDeviceResets; got != len(ports) {
			t.Fatalf("run %d: %d connections torn down, want %d", run, got, len(ports))
		}
		if !slices.Equal(woke, want) {
			t.Fatalf("run %d: readers woke in port order %v, want %v", run, woke, want)
		}
	}
}
