// Package netif defines the interface between the protocol stack and
// network device drivers: the ifnet-style Interface abstraction, link
// addresses, capability flags (does the device accept descriptor mbufs and
// checksum outboard?), and the routing table the network layer uses for
// interface selection.
package netif

import (
	"fmt"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/wire"
)

// LinkAddr is a link-level station address (a HIPPI switch port for the
// CAB, an arbitrary station id for other media).
type LinkAddr uint32

// Caps describes what a device can do for the stack.
type Caps struct {
	// SingleCopy means the device accepts M_UIO and M_WCAB descriptor
	// mbufs and provides outboard buffering and checksumming — the CAB.
	// Devices without it require fully materialized kernel-buffer chains
	// and software checksums.
	SingleCopy bool
}

// Interface is one attached network device.
type Interface interface {
	// Name identifies the device ("cab0", "en0", "lo0").
	Name() string
	// MTU is the largest network-layer packet (IP header + payload) the
	// device carries.
	MTU() units.Size
	// Caps returns the device's capabilities.
	Caps() Caps
	// Output transmits the network-layer packet m (a chain whose first
	// mbuf begins with the IP header) to link destination dst. The driver
	// prepends its own link header. Output may be called in process or
	// interrupt context.
	Output(ctx kern.Ctx, m *mbuf.Mbuf, dst LinkAddr)
}

// InputFunc is the stack's receive entry point, called by drivers in
// interrupt context with the link header already stripped.
type InputFunc func(ctx kern.Ctx, m *mbuf.Mbuf, from Interface)

// Admitter is implemented by devices whose staging memory is arbitrated
// per flow (the CAB's netmem arbiter). Transports call AdmitTx in process
// context before committing n bytes of flow's data to the send path;
// the call blocks p until the flow's allocation fits the device's
// arbitration policy. Devices without arbitration simply do not implement
// the interface.
type Admitter interface {
	AdmitTx(p *sim.Proc, flow int, n units.Size)
}

// Route maps a destination address to an interface and a link-level next
// hop.
type Route struct {
	Dst  wire.Addr
	If   Interface
	Link LinkAddr
}

// Table is a routing table of host routes.
type Table struct {
	routes map[wire.Addr]Route
}

// NewTable returns an empty routing table.
func NewTable() *Table { return &Table{routes: make(map[wire.Addr]Route)} }

// AddHost installs a host route.
func (t *Table) AddHost(dst wire.Addr, ifc Interface, link LinkAddr) {
	t.routes[dst] = Route{Dst: dst, If: ifc, Link: link}
}

// Lookup selects the route for dst — the interface selection the paper
// notes happens in the network layer, which is why a socket-level "stack
// switch" would be unreliable (Section 4.1).
func (t *Table) Lookup(dst wire.Addr) (Route, error) {
	if r, ok := t.routes[dst]; ok {
		return r, nil
	}
	return Route{}, fmt.Errorf("netif: no route to %v", dst)
}
