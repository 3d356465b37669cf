package taxonomy

// Receive-side taxonomy: the mirror of Table 1 for the read path, derived
// from the corresponding constraints (Section 2.2's receive walk-through
// and the host-interface design space of [19]):
//
//  1. With copy semantics the data arrives before the application posts
//     its read buffer, so it must be staged somewhere. Without outboard
//     buffering the staging is host kernel memory, and delivering to the
//     user costs a memory-memory copy. With outboard buffering the packet
//     waits in adaptor memory and a single device transfer lands it
//     directly in the user's buffer at read time. Shared-semantics APIs
//     deliver into the shared buffers either way.
//  2. Checksum placement is irrelevant on receive — the whole packet is
//     present before verification — but the verification still has to
//     read every byte unless it merges with the device transfer (PIO, or
//     a DMA checksum engine summing as the packet arrives) or with the
//     staging copy.
//  3. Single-packet adaptor buffering does not change the receive
//     structure: it cannot hold data until an arbitrary later read.
//
// DeriveReceive computes the receive-path operation sequence for one
// configuration.
func DeriveReceive(cfg Config) Cell {
	var ops []Op

	needCopy := cfg.API == APICopy && cfg.Buf != BufOutboard

	csumDone := false
	// The arrival transfer: media → host kernel buffers (no outboard
	// buffering) or media → network memory then device → destination
	// buffer (outboard). Either way it is one device transfer from the
	// host's point of view.
	switch cfg.Move {
	case MovePIO:
		// The CPU touches the data anyway: verify during the transfer.
		ops = append(ops, OpPIOC)
		csumDone = true
	case MoveDMA:
		ops = append(ops, OpDMA)
	case MoveDMACsum:
		ops = append(ops, OpDMAC)
		csumDone = true
	}

	if needCopy {
		if !csumDone {
			// Fold verification into the unavoidable staging copy.
			ops = append(ops, OpCopyC)
			csumDone = true
		} else {
			ops = append(ops, OpCopy)
		}
	}
	if !csumDone {
		ops = append(ops, OpReadC)
	}

	return newCell(cfg, ops)
}

// FormatReceive renders the receive-side grid. Checksum placement does not
// matter on receive, so rows collapse to API × movement.
func FormatReceive() string {
	return grid(DeriveReceive, csumLocs[:1], 88)
}
