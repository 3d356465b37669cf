package load

import (
	"testing"

	"repro/internal/units"
)

// TestRampMatchesByteLoop holds the table-driven fill and check to the
// pattern's definition, one byte at a time: for every start byte and every
// length from nothing to past two periods, fillRamp writes first+3·i,
// checkRamp accepts exactly that, and a single wrong byte — first, last,
// and on either side of each period boundary — is found at its index.
func TestRampMatchesByteLoop(t *testing.T) {
	for first := 0; first < 256; first++ {
		for n := 0; n <= 600; n++ {
			b := make([]byte, n+1)
			b[n] = 0xa5 // guard: fillRamp must stay inside b[:n]
			fillRamp(b[:n], byte(first))
			for i, v := range b[:n] {
				if want := byte(first + 3*i); v != want {
					t.Fatalf("fillRamp(first=%d, n=%d)[%d] = %#x, want %#x", first, n, i, v, want)
				}
			}
			if b[n] != 0xa5 {
				t.Fatalf("fillRamp(first=%d, n=%d) wrote past the slice", first, n)
			}
			if i := checkRamp(b[:n], byte(first)); i != -1 {
				t.Fatalf("checkRamp(first=%d, n=%d) = %d on a clean ramp", first, n, i)
			}
			for _, at := range []int{0, n - 1, 255, 256, 511, 512} {
				if at < 0 || at >= n {
					continue
				}
				b[at] ^= 0x40
				if i := checkRamp(b[:n], byte(first)); i != at {
					t.Fatalf("checkRamp(first=%d, n=%d) = %d with byte %d corrupted", first, n, i, at)
				}
				b[at] ^= 0x40
			}
		}
	}
	// Two corrupted bytes: the first one is reported.
	b := make([]byte, 600)
	fillRamp(b, 9)
	b[300], b[20] = 0, 0
	if i := checkRamp(b, 9); i != 20 {
		t.Fatalf("checkRamp found byte %d, want the first corrupted byte 20", i)
	}
}

// TestPatternsAreRamps ties the two payload patterns to fillRamp at
// offsets that are not multiples of the period.
func TestPatternsAreRamps(t *testing.T) {
	b := make([]byte, 700)
	for _, c := range []struct{ flow, seq, off int }{{0, 0, 0}, {3, 17, 5}, {1023, 99, 65531}, {77, 4, 8192 + 13}} {
		fillPat(b, c.flow, c.seq, c.off)
		for i, v := range b {
			if want := patByte(c.flow, c.seq, c.off+i); v != want {
				t.Fatalf("fillPat(%+v)[%d] = %#x, want %#x", c, i, v, want)
			}
		}
		fillStream(b, c.flow, units.Size(c.off))
		for i, v := range b {
			if want := streamByte(c.flow, units.Size(c.off+i)); v != want {
				t.Fatalf("fillStream(%+v)[%d] = %#x, want %#x", c, i, v, want)
			}
		}
	}
}
