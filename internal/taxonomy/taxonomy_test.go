package taxonomy

import "testing"

func derive(api API, cs CsumLoc, buf Buffering, mv Movement) Cell {
	return Derive(Config{api, cs, buf, mv})
}

func TestCABConfigurationIsSingleCopy(t *testing.T) {
	// The paper's focus: copy API, header checksum, outboard buffering,
	// DMA with checksum engine → a single DMA_C, single-copy class.
	c := derive(APICopy, CsumHeader, BufOutboard, MoveDMACsum)
	if c.Class != SingleCopy {
		t.Fatalf("CAB cell class = %v, want single-copy", c.Class)
	}
	if len(c.Ops) != 1 || c.Ops[0] != OpDMAC {
		t.Fatalf("CAB ops = %v, want [DMA_C]", c.Ops)
	}
	if c.HostDataAccesses != 0 {
		t.Fatalf("CAB host accesses = %d, want 0", c.HostDataAccesses)
	}
}

func TestCopyAPIWithoutOutboardNeedsCopy(t *testing.T) {
	// The dashed-box rule: copy semantics without outboard buffering
	// forces a memory-memory copy, whatever the movement support.
	for _, buf := range []Buffering{BufNone, BufPacket} {
		for _, mv := range []Movement{MovePIO, MoveDMA, MoveDMACsum} {
			for _, cs := range []CsumLoc{CsumHeader, CsumTrailer} {
				c := derive(APICopy, cs, buf, mv)
				if c.Class != TwoCopy {
					t.Errorf("%v: class %v, want two-copy", c.Config, c.Class)
				}
			}
		}
	}
}

func TestSharedAPINeverCopies(t *testing.T) {
	for _, cs := range []CsumLoc{CsumHeader, CsumTrailer} {
		for _, buf := range []Buffering{BufNone, BufPacket, BufOutboard} {
			for _, mv := range []Movement{MovePIO, MoveDMA, MoveDMACsum} {
				c := derive(APIShared, cs, buf, mv)
				if c.Class == TwoCopy {
					t.Errorf("%v: shared API should never need a copy", c.Config)
				}
			}
		}
	}
}

func TestPlainDMANeedsSeparateRead(t *testing.T) {
	// The dotted-box rule: plain DMA cannot checksum, so interfaces
	// without a host copy to piggyback on need a separate read pass.
	c := derive(APIShared, CsumTrailer, BufOutboard, MoveDMA)
	if c.Class != CopyPlusRead {
		t.Fatalf("class = %v, want copy+read", c.Class)
	}
	if c.Ops[0] != OpReadC {
		t.Fatalf("ops = %v, want Read_C first", c.Ops)
	}
}

func TestHeaderChecksumWithoutBufferingForcesEarlyChecksum(t *testing.T) {
	// Header checksum + no buffering: even PIO (which could checksum
	// inline) must compute it before the header streams out.
	c := derive(APIShared, CsumHeader, BufNone, MovePIO)
	if len(c.Ops) != 2 || c.Ops[0] != OpReadC || c.Ops[1] != OpPIO {
		t.Fatalf("ops = %v, want [Read_C PIO]", c.Ops)
	}
}

func TestTrailerChecksumMergesWithPIO(t *testing.T) {
	// Trailer checksum can always be merged with a PIO transfer.
	c := derive(APIShared, CsumTrailer, BufNone, MovePIO)
	if len(c.Ops) != 1 || c.Ops[0] != OpPIOC {
		t.Fatalf("ops = %v, want [PIO_C]", c.Ops)
	}
	if c.Class != SingleCopy {
		t.Fatalf("class = %v, want single-copy", c.Class)
	}
}

func TestPacketBufferingAllowsHeaderInsertion(t *testing.T) {
	// With a packet buffered on the adaptor, a header checksum can be
	// inserted after the data streams out: shared-API PIO is single copy.
	c := derive(APIShared, CsumHeader, BufPacket, MovePIO)
	if c.Class != SingleCopy {
		t.Fatalf("class = %v, want single-copy", c.Class)
	}
	if len(c.Ops) != 1 || c.Ops[0] != OpPIOC {
		t.Fatalf("ops = %v, want [PIO_C]", c.Ops)
	}
}

func TestCopyMergesChecksum(t *testing.T) {
	// When a copy is forced and the transfer cannot checksum, the
	// checksum merges into the copy — no third pass.
	c := derive(APICopy, CsumHeader, BufNone, MoveDMA)
	if len(c.Ops) != 2 || c.Ops[0] != OpCopyC || c.Ops[1] != OpDMA {
		t.Fatalf("ops = %v, want [Copy_C DMA]", c.Ops)
	}
	// Data touched twice by the copy, never a third time.
	if c.HostDataAccesses != 2 {
		t.Fatalf("accesses = %d, want 2", c.HostDataAccesses)
	}
}

func TestAllEnumerates36Cells(t *testing.T) {
	cells := All()
	if len(cells) != 36 {
		t.Fatalf("cells = %d, want 2×2×3×3 = 36", len(cells))
	}
	// Single-copy interfaces are exactly those with at most one op and no
	// host memory copy.
	for _, c := range cells {
		if c.Class == SingleCopy && c.HostDataAccesses > 1 {
			t.Errorf("%v: single-copy with %d host accesses", c.Config, c.HostDataAccesses)
		}
		if len(c.Ops) == 0 {
			t.Errorf("%v: empty op sequence", c.Config)
		}
	}
}

func TestOutboardBufferingMinimizesAccesses(t *testing.T) {
	// For the copy-semantics API, outboard buffering + checksum engine is
	// the unique best column: zero host data accesses.
	best := 0
	for _, c := range All() {
		if c.Config.API != APICopy {
			continue
		}
		if c.HostDataAccesses == 0 {
			best++
			if c.Config.Buf != BufOutboard || c.Config.Move != MoveDMACsum {
				t.Errorf("unexpected zero-access config %v", c.Config)
			}
		}
	}
	if best != 2 { // header and trailer checksum variants
		t.Fatalf("zero-access copy-API configs = %d, want 2", best)
	}
}

func TestFormatRendersGrid(t *testing.T) {
	out := Format()
	if len(out) < 400 {
		t.Fatalf("table too short:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestEveryCellComputesChecksumExactlyOnce(t *testing.T) {
	for _, c := range All() {
		n := 0
		for _, op := range c.Ops {
			switch op {
			case OpCopyC, OpReadC, OpPIOC, OpDMAC:
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v: checksum computed %d times (ops %v)", c.Config, n, c.Ops)
		}
	}
}

func TestEveryCellMovesDataToDeviceOnce(t *testing.T) {
	for _, c := range All() {
		n := 0
		for _, op := range c.Ops {
			switch op {
			case OpPIO, OpPIOC, OpDMA, OpDMAC:
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v: %d device transfers (ops %v)", c.Config, n, c.Ops)
		}
	}
}

func TestReceiveCABIsSingleCopy(t *testing.T) {
	// The CAB receive path: outboard buffering + checksum engine lets the
	// read DMA land directly in the user buffer, already verified.
	c := DeriveReceive(Config{APICopy, CsumHeader, BufOutboard, MoveDMACsum})
	if c.Class != SingleCopy || len(c.Ops) != 1 || c.Ops[0] != OpDMAC {
		t.Fatalf("CAB receive = %v (%v), want [DMA_C] single-copy", c.Ops, c.Class)
	}
}

func TestReceiveCopyAPIWithoutOutboardStages(t *testing.T) {
	for _, buf := range []Buffering{BufNone, BufPacket} {
		for _, mv := range []Movement{MovePIO, MoveDMA, MoveDMACsum} {
			c := DeriveReceive(Config{APICopy, CsumHeader, buf, mv})
			if c.Class != TwoCopy {
				t.Errorf("%v receive: %v, want two-copy (staging)", c.Config, c.Class)
			}
		}
	}
}

func TestReceivePlainDMAMergesChecksumIntoCopy(t *testing.T) {
	c := DeriveReceive(Config{APICopy, CsumHeader, BufNone, MoveDMA})
	if len(c.Ops) != 2 || c.Ops[0] != OpDMA || c.Ops[1] != OpCopyC {
		t.Fatalf("ops = %v, want [DMA Copy_C]", c.Ops)
	}
}

func TestReceiveSharedDMANeedsRead(t *testing.T) {
	c := DeriveReceive(Config{APIShared, CsumHeader, BufNone, MoveDMA})
	if c.Class != CopyPlusRead {
		t.Fatalf("class = %v, want copy+read", c.Class)
	}
}

func TestReceiveChecksumOnceAndOneTransfer(t *testing.T) {
	// Checksum placement does not matter on receive, so the configurations
	// are API × buffering × movement.
	for _, api := range apis {
		for _, buf := range bufferings {
			for _, mv := range movements {
				c := DeriveReceive(Config{api, CsumHeader, buf, mv})
				csums, xfers := 0, 0
				for _, op := range c.Ops {
					switch op {
					case OpCopyC, OpReadC, OpPIOC, OpDMAC:
						csums++
					}
					switch op {
					case OpPIO, OpPIOC, OpDMA, OpDMAC:
						xfers++
					}
				}
				if csums != 1 || xfers != 1 {
					t.Errorf("%v: csums=%d xfers=%d (ops %v)", c.Config, csums, xfers, c.Ops)
				}
			}
		}
	}
}

func TestFormatReceive(t *testing.T) {
	out := FormatReceive()
	if len(out) < 300 {
		t.Fatalf("short table:\n%s", out)
	}
	t.Logf("\n%s", out)
}
