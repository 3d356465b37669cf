// Package taxonomy reproduces the host-interface taxonomy of Table 1
// (after Steenkiste's "A systematic approach to host interface design for
// high-speed networks"): for each combination of
//
//   - API semantics (copy or shared),
//   - transport checksum placement (header or trailer), and
//   - adaptor architecture (no buffering / single-packet buffering /
//     outboard buffering, each with PIO, plain DMA, or DMA plus an
//     outboard checksum engine),
//
// it derives the minimal sequence of data-touching operations the transmit
// path must perform, and classifies the interface (single-copy, copy plus
// separate checksum read, or two-copy).
//
// The derivation follows the constraints the paper lays out:
//
//  1. Copy-semantics APIs must not let the device read user memory after
//     the call returns; without outboard buffering, the (retransmittable)
//     data must first move into kernel buffers — a memory-memory copy.
//     Outboard buffering removes this copy because the adaptor itself
//     holds the retransmission data. Shared-semantics APIs never need it.
//  2. A header checksum must be known before the header leaves the host,
//     so it must be computed during an earlier host pass over the data
//     (merged into a copy or taken as a separate read) — unless the
//     adaptor buffers at least a full packet, in which case the adaptor
//     (or the host, for outboard buffers) can insert it after the data
//     streams out. A trailer checksum can always be merged into the final
//     transfer.
//  3. PIO passes the data through the CPU, so a checksum can be merged
//     with it for free; plain DMA never touches the CPU, so the checksum
//     needs a separate read unless rule 2 already produced it; a DMA
//     engine with checksum support merges it in hardware.
package taxonomy

import (
	"fmt"
	"strings"
)

// API is the application programming interface semantics.
type API int

// API kinds.
const (
	APICopy API = iota
	APIShared
)

func (a API) String() string {
	if a == APICopy {
		return "copy"
	}
	return "shared"
}

// CsumLoc is where the transport protocol places the data checksum.
type CsumLoc int

// Checksum placements.
const (
	CsumHeader CsumLoc = iota
	CsumTrailer
)

func (c CsumLoc) String() string {
	if c == CsumHeader {
		return "header"
	}
	return "trailer"
}

// Buffering is the adaptor's data buffering capability.
type Buffering int

// Buffering classes.
const (
	BufNone Buffering = iota
	BufPacket
	BufOutboard
)

func (b Buffering) String() string {
	switch b {
	case BufNone:
		return "none"
	case BufPacket:
		return "packet"
	default:
		return "outboard"
	}
}

// Movement is the adaptor's data movement support.
type Movement int

// Movement classes.
const (
	MovePIO Movement = iota
	MoveDMA
	MoveDMACsum
)

func (m Movement) String() string {
	switch m {
	case MovePIO:
		return "PIO"
	case MoveDMA:
		return "DMA"
	default:
		return "DMA+csum"
	}
}

// Op is one data-touching operation.
type Op string

// Data-touching operations (Table 1's vocabulary).
const (
	OpCopy  Op = "Copy"   // memory-memory copy
	OpCopyC Op = "Copy_C" // copy with checksum folded in
	OpReadC Op = "Read_C" // separate checksum read
	OpPIO   Op = "PIO"    // programmed IO to the device
	OpPIOC  Op = "PIO_C"  // programmed IO with checksum folded in
	OpDMA   Op = "DMA"    // DMA to the device
	OpDMAC  Op = "DMA_C"  // DMA with outboard checksum engine
)

// Class is the cost classification of an interface.
type Class int

// Interface classes.
const (
	// SingleCopy: the data crosses the memory system once, checksummed on
	// the way (the solid single-copy entries).
	SingleCopy Class = iota
	// CopyPlusRead: one data movement plus a separate checksum read (the
	// dotted-box entries).
	CopyPlusRead
	// TwoCopy: an extra memory-memory copy is unavoidable (the dashed-box
	// entries).
	TwoCopy
)

func (c Class) String() string {
	switch c {
	case SingleCopy:
		return "single-copy"
	case CopyPlusRead:
		return "copy+read"
	default:
		return "two-copy"
	}
}

// Config identifies one cell of the taxonomy.
type Config struct {
	API  API
	Csum CsumLoc
	Buf  Buffering
	Move Movement
}

func (c Config) String() string {
	return fmt.Sprintf("%v/%v/%v/%v", c.API, c.Csum, c.Buf, c.Move)
}

// The two configurations the simulated stacks realize.
var (
	// CAB is the paper's interface: copy API, header checksum, outboard
	// buffering, DMA with the checksum computed in flight.
	CAB = Config{APICopy, CsumHeader, BufOutboard, MoveDMACsum}
	// Unmodified is the original stack's: copy API, header checksum, no
	// outboard buffering, plain DMA. The simulated stack takes the cell's
	// separate-checksum variant (a plain copy at the socket layer, a
	// checksum pass in TCP), which touches each byte as Copy_C does.
	Unmodified = Config{APICopy, CsumHeader, BufNone, MoveDMA}
)

// Table 1's axes, in row-major order.
var (
	apis       = []API{APICopy, APIShared}
	csumLocs   = []CsumLoc{CsumHeader, CsumTrailer}
	bufferings = []Buffering{BufNone, BufPacket, BufOutboard}
	movements  = []Movement{MovePIO, MoveDMA, MoveDMACsum}
)

// Cell is the derived result for one configuration.
type Cell struct {
	Config Config
	Ops    []Op
	Class  Class
	// HostDataAccesses counts how many times the host CPU or a
	// memory-memory copy touches each data byte (the per-byte cost the
	// paper minimizes). Device DMA does not count; PIO counts once.
	HostDataAccesses int
}

// Derive computes the operation sequence for one configuration.
func Derive(cfg Config) Cell {
	var ops []Op

	// Rule 1: does copy semantics force a host copy?
	// Without outboard buffering, the protocol needs host-resident
	// retransmit data, so copy-API data must be copied into kernel
	// buffers. (Packet buffering on the adaptor is transmit FIFO space,
	// not retransmission storage.)
	needCopy := cfg.API == APICopy && cfg.Buf != BufOutboard

	// Rule 2: when must the checksum exist before the final transfer?
	// A header checksum must be available when the header leaves the
	// host, unless the adaptor buffers a whole packet (it can insert it)
	// or the data rests in outboard buffers (inserted there).
	csumEarly := cfg.Csum == CsumHeader && cfg.Buf == BufNone

	// Rule 3: can the final transfer compute the checksum?
	transferCanCsum := cfg.Move == MovePIO || cfg.Move == MoveDMACsum

	csumDone := false
	if needCopy {
		// A copy is unavoidable, so fold the checksum into it — an extra
		// pass would only add memory traffic.
		ops = append(ops, OpCopyC)
		csumDone = true
	} else if csumEarly || !transferCanCsum {
		// No copy to merge with and the final transfer cannot produce
		// the checksum (or it is needed before the header leaves): a
		// separate checksum read.
		ops = append(ops, OpReadC)
		csumDone = true
	}

	// The final transfer.
	switch cfg.Move {
	case MovePIO:
		if !csumDone {
			ops = append(ops, OpPIOC)
		} else {
			ops = append(ops, OpPIO)
		}
	case MoveDMA:
		ops = append(ops, OpDMA)
	case MoveDMACsum:
		if !csumDone {
			ops = append(ops, OpDMAC)
		} else {
			ops = append(ops, OpDMA)
		}
	}

	return newCell(cfg, ops)
}

// newCell counts a derived op sequence's host data accesses and classifies
// it.
func newCell(cfg Config, ops []Op) Cell {
	cell := Cell{Config: cfg, Ops: ops, Class: classify(ops)}
	for _, op := range ops {
		switch op {
		case OpCopy, OpCopyC:
			cell.HostDataAccesses += 2 // read + write
		case OpReadC, OpPIO, OpPIOC:
			cell.HostDataAccesses++
		}
	}
	return cell
}

// OpString renders the cell's op sequence, space-separated.
func (c Cell) OpString() string {
	ops := make([]string, len(c.Ops))
	for i, op := range c.Ops {
		ops[i] = string(op)
	}
	return strings.Join(ops, " ")
}

// classify maps an op sequence to Table 1's three regimes.
func classify(ops []Op) Class {
	hasMemCopy := false
	hasRead := false
	for _, op := range ops {
		switch op {
		case OpCopy, OpCopyC:
			hasMemCopy = true
		case OpReadC:
			hasRead = true
		}
	}
	switch {
	case hasMemCopy:
		return TwoCopy
	case hasRead:
		return CopyPlusRead
	default:
		return SingleCopy
	}
}

// All enumerates every cell of Table 1 in row-major order (API × checksum
// rows; buffering × movement columns).
func All() []Cell {
	var cells []Cell
	for _, api := range apis {
		for _, cs := range csumLocs {
			for _, buf := range bufferings {
				for _, mv := range movements {
					cells = append(cells, Derive(Config{api, cs, buf, mv}))
				}
			}
		}
	}
	return cells
}

// Format renders the taxonomy as a Table 1-style grid.
func Format() string { return grid(Derive, csumLocs, 96) }

// grid renders one side of the table under a rule of the given width: a
// row per API, checksum placement and movement, a column per buffering
// class. Given one placement (the receive side, where it does not matter)
// it leaves out the checksum column.
func grid(derive func(Config) Cell, csums []CsumLoc, rule int) string {
	lead, head := "%-8s %-8s | ", []any{"API", "csum"}
	if len(csums) == 1 {
		lead, head = "%-8s | ", head[:1]
	}
	var b strings.Builder
	row := lead + "%-22s | %-22s | %-22s"
	fmt.Fprintf(&b, row+"\n", append(head, "no buffering", "packet buffering", "outboard buffering")...)
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", rule))
	for _, api := range apis {
		for _, cs := range csums {
			for _, mv := range movements {
				cols := []any{api, cs}[:len(head)]
				for _, buf := range bufferings {
					cols = append(cols, derive(Config{api, cs, buf, mv}).OpString())
				}
				fmt.Fprintf(&b, row+"  (%s)\n", append(cols, mv)...)
			}
		}
	}
	return b.String()
}
