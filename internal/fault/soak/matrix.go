package soak

import (
	"repro/internal/cabdrv"
	"repro/internal/socket"
	"repro/internal/tcpip"
	"repro/internal/units"
)

// Matrix is the full adversarial soak suite: every fault surface, both
// protocols, both stack modes, and a combined-plan stress case. Its cases
// allow no flow error: nothing may go wrong. TCP plans carry min=200 so
// the handshake survives; UDP data plans use min=1000.
func Matrix() []Case {
	sc := socket.ModeSingleCopy
	um := socket.ModeUnmodified
	return []Case{
		{Name: "tcp-clean", Plan: "", Seed: 1, Proto: "tcp", Mode: sc},
		{Name: "tcp-drop", Plan: "drop:every=13,min=200", Seed: 2, Proto: "tcp", Mode: sc},
		{Name: "tcp-drop-burst", Plan: "drop:burst=10+6,min=200", Seed: 3, Proto: "tcp", Mode: sc},
		{Name: "tcp-corrupt", Plan: "corrupt:every=11,min=200", Seed: 4, Proto: "tcp", Mode: sc},
		{Name: "tcp-dup", Plan: "dup:every=7,min=200", Seed: 5, Proto: "tcp", Mode: sc},
		{Name: "tcp-reorder", Plan: "reorder:every=7,min=1000,delay=3ms", Seed: 6, Proto: "tcp", Mode: sc},
		{Name: "tcp-delay", Plan: "delay:p=0.2,min=200", Seed: 7, Proto: "tcp", Mode: sc},
		{Name: "tcp-dmafail", Plan: "dmafail:every=23", Seed: 8, Proto: "tcp", Mode: sc},
		{Name: "tcp-txcsum", Plan: "txcsum:every=31", Seed: 9, Proto: "tcp", Mode: sc},
		{Name: "tcp-rxcsum", Plan: "rxcsum:every=29", Seed: 10, Proto: "tcp", Mode: sc},
		{Name: "tcp-netmem", Plan: "netmem:at=2ms,until=10ms", Seed: 11, Proto: "tcp", Mode: sc},
		{Name: "tcp-allocfail", Plan: "allocfail:every=17", Seed: 12, Proto: "tcp", Mode: sc},
		{Name: "tcp-combined", Seed: 13, Proto: "tcp", Mode: sc,
			Plan: "drop:every=11,min=200;corrupt:every=13,min=200;dup:every=17,min=200;delay:p=0.1,min=200"},
		{Name: "tcp-64flow-drop", Plan: "drop:every=29,min=500", Seed: 31, Proto: "tcp", Mode: sc,
			Flows: 64, Arbiter: true, Total: 64 * units.KB, RWSize: 16 * units.KB},
		{Name: "tcp-64flow-netmem", Plan: "netmem:at=2ms,until=10ms", Seed: 32, Proto: "tcp", Mode: sc,
			Flows: 64, Arbiter: true, Total: 64 * units.KB, RWSize: 16 * units.KB},
		{Name: "tcp-unmod-drop", Plan: "drop:every=13,min=200", Seed: 14, Proto: "tcp", Mode: um},
		{Name: "tcp-unmod-corrupt", Plan: "corrupt:every=11,min=200", Seed: 15, Proto: "tcp", Mode: um},
		{Name: "udp-clean", Plan: "", Seed: 16, Proto: "udp", Mode: sc},
		{Name: "udp-drop", Plan: "drop:every=5,min=1000", Seed: 17, Proto: "udp", Mode: sc},
		{Name: "udp-corrupt", Plan: "corrupt:every=4,min=1000", Seed: 18, Proto: "udp", Mode: sc},
		{Name: "udp-dup", Plan: "dup:every=6,min=1000", Seed: 19, Proto: "udp", Mode: sc},
		{Name: "udp-reorder", Plan: "reorder:every=5,min=1000", Seed: 20, Proto: "udp", Mode: sc},
		{Name: "udp-allocfail", Plan: "allocfail:every=13", Seed: 21, Proto: "udp", Mode: sc},
		{Name: "udp-unmod-drop", Plan: "drop:every=5,min=1000", Seed: 22, Proto: "udp", Mode: um},
	}
}

// RecoverMatrix is the fault-domain recovery suite: link partitions across
// connection phases and directions, adaptor resets on each side and both,
// peer death, and combinations with per-packet plans. Every case runs
// framed flows; cases without AllowSnd/AllowRcv must complete every flow
// byte-exact.
func RecoverMatrix() []Case {
	sc := socket.ModeSingleCopy
	um := socket.ModeUnmodified
	resetSnd := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrConnTimeout, tcpip.ErrTimeout, cabdrv.ErrReset}
	resetRcv := []error{tcpip.ErrDeviceReset, tcpip.ErrConnReset, tcpip.ErrTimeout, cabdrv.ErrReset}
	deathSnd := []error{tcpip.ErrTimeout, tcpip.ErrConnTimeout}
	deathRcv := []error{tcpip.ErrTimeout, tcpip.ErrConnReset}
	return []Case{
		// Link partitions: every flow must heal and complete byte-exact.
		{Name: "partition-slowstart", Plan: "partition:at=500us,dur=5ms", Seed: 41, Mode: sc, Flows: 1},
		{Name: "partition-steady", Plan: "partition:at=10ms,dur=10ms", Seed: 42, Mode: sc, Flows: 1},
		{Name: "partition-long", Plan: "partition:at=5ms,dur=300ms", Seed: 43, Mode: sc, Flows: 1},
		{Name: "partition-data-dir", Plan: "partition:at=5ms,dur=20ms,src=1,dst=2", Seed: 44, Mode: sc, Flows: 1},
		{Name: "partition-ack-dir", Plan: "partition:at=5ms,dur=20ms,src=2,dst=1", Seed: 45, Mode: sc, Flows: 1},
		{Name: "partition-drop-combo", Plan: "partition:at=6ms,dur=15ms;drop:every=13,min=200", Seed: 46, Mode: sc, Flows: 1},
		{Name: "partition-corrupt-combo", Plan: "partition:at=6ms,dur=15ms;corrupt:every=11,min=200", Seed: 47, Mode: sc, Flows: 1},
		{Name: "partition-unmod", Plan: "partition:at=5ms,dur=20ms", Seed: 48, Mode: um, Flows: 1},

		// Adaptor resets: flows with outboard state die with a clean typed
		// error; flows without it must recover via retransmission.
		{Name: "cabreset-sender", Plan: "cabreset:at=8ms,node=1", Seed: 51, Mode: sc, Flows: 1, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv},
		{Name: "cabreset-receiver", Plan: "cabreset:at=8ms,node=2", Seed: 52, Mode: sc, Flows: 1, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv},
		{Name: "cabreset-both", Plan: "cabreset:at=8ms", Seed: 53, Mode: sc, Flows: 1, KeepAlive: true,
			AllowSnd: resetSnd, AllowRcv: resetRcv},
		{Name: "cabreset-multiflow", Plan: "cabreset:at=6ms,node=1", Seed: 54, Mode: sc, KeepAlive: true,
			Flows: 4, Arbiter: true, AllowSnd: resetSnd, AllowRcv: resetRcv},
		// The paper's fault-domain contrast: the unmodified stack keeps all
		// transport state in host memory, so a firmware reset loses nothing
		// the kernel cannot retransmit — every flow completes byte-exact.
		{Name: "cabreset-unmod", Plan: "cabreset:at=8ms", Seed: 55, Mode: um, Flows: 1},
		{Name: "cabreset-drop-combo", Plan: "cabreset:at=8ms,node=1;drop:every=17,min=200", Seed: 56, Mode: sc, Flows: 1,
			KeepAlive: true, AllowSnd: resetSnd, AllowRcv: resetRcv},

		// Peer death: an unbounded partition. Liveness (keepalive on the
		// idle reader, user-timeout on the stalled writer) must surface a
		// clean typed error within its bound on both ends.
		{Name: "peerdeath-steady", Plan: "partition:at=10ms", Seed: 57, Mode: sc, Flows: 1, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv},
		{Name: "peerdeath-slowstart", Plan: "partition:at=1ms", Seed: 58, Mode: sc, Flows: 1, KeepAlive: true,
			UserTimeout: 2 * units.Second, AllowSnd: deathSnd, AllowRcv: deathRcv},
	}
}
