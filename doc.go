// Package repro is a from-scratch reproduction of "Software Support for
// Outboard Buffering and Checksumming" (Kleinpaste, Steenkiste, Zill —
// SIGCOMM '95) as a deterministic discrete-event simulation in Go.
//
// The library rebuilds everything the paper depends on: a BSD-style
// protocol stack (mbufs, sockets, TCP/UDP/IP) with both the original and
// the single-copy data paths, a functional model of the Gigabit Nectar CAB
// adaptor (outboard network memory, SDMA/MDMA engines, transmit and
// receive checksum engines, auto-DMA, logical channels), the HIPPI media,
// a simulated Unix kernel with CPU scheduling and time accounting, and the
// ttcp + util measurement methodology. Real bytes flow end to end and real
// Internet checksums are computed; only time is virtual, charged from a
// cost model calibrated with the constants the paper publishes.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-versus-measured comparison, and bench_test.go for the harnesses
// that regenerate each table and figure.
//
// Entry points:
//
//   - internal/core: assemble testbeds of simulated hosts.
//   - internal/exp: regenerate the paper's figures and tables.
//   - cmd/ttcp, cmd/experiments: command-line tools.
//   - examples/: runnable scenarios (quickstart, fileserver,
//     mixeddevices, retransmit).
package repro
