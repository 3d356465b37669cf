package checksum

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refSum is a deliberately naive reference: build the padded word sequence
// and add with explicit end-around carry.
func refSum(b []byte) uint32 {
	var s uint32
	add16 := func(w uint16) {
		s += uint32(w)
		for s > 0xffff {
			s = (s & 0xffff) + (s >> 16)
		}
	}
	for i := 0; i+1 < len(b); i += 2 {
		add16(uint16(b[i])<<8 | uint16(b[i+1]))
	}
	if len(b)%2 == 1 {
		add16(uint16(b[len(b)-1]) << 8)
	}
	return s
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

func checkSum(t *testing.T, what string, b []byte) {
	t.Helper()
	if got, want := Fold(Sum(b)), Fold(refSum(b)); got != want {
		t.Fatalf("%s: Fold(Sum) = %#04x, reference %#04x (len %d)", what, got, want, len(b))
	}
}

func TestSumMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		checkSum(t, "random", randBytes(r, r.Intn(300)))
	}
	// Every length 0–300 at every sub-slice offset 0–7: odd starts, and
	// tails on both sides of the 8- and 32-byte blocks. All-0xFF input
	// carries out of every word; all-zero input is the one sum that folds
	// to 0 rather than 0xffff.
	ones := make([]byte, 308)
	for i := range ones {
		ones[i] = 0xff
	}
	for _, src := range [][]byte{randBytes(r, 308), ones, make([]byte, 308)} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 300; n++ {
				checkSum(t, fmt.Sprintf("off %d", off), src[off:off+n])
			}
		}
	}
	// Long inputs: the accumulators must not lose carries.
	for _, n := range []int{64 << 10, 64<<10 + 1, 1 << 20, 1<<20 + 7} {
		checkSum(t, "long random", randBytes(r, n))
		ff := make([]byte, n)
		for i := range ff {
			ff[i] = 0xff
		}
		checkSum(t, "long 0xff", ff)
	}
}

func TestSumProperty(t *testing.T) {
	f := func(b []byte, off uint8) bool {
		if o := int(off % 8); o <= len(b) {
			b = b[o:]
		}
		return Fold(Sum(b)) == Fold(refSum(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

var sinkSum uint32

func BenchmarkSum(b *testing.B) {
	for _, n := range []int{64, 1500, 32 << 10} {
		buf := randBytes(rand.New(rand.NewSource(1)), n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sinkSum += Sum(buf)
			}
		})
	}
}

func TestSumKnownVectors(t *testing.T) {
	// RFC 1071 worked example: 0001 f203 f4f5 f6f7 sums to ddf2 → csum 220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Fold(Sum(b)); got != 0xddf2 {
		t.Fatalf("folded sum = %#x, want 0xddf2", got)
	}
	if got := Checksum(b); got != 0x220d {
		t.Fatalf("checksum = %#x, want 0x220d", got)
	}
	if Checksum(nil) != 0xffff {
		t.Fatalf("checksum of empty = %#x, want 0xffff", Checksum(nil))
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		// Build a "packet" with a checksum field at bytes 2..3.
		b := randBytes(r, 4+r.Intn(200))
		b[2], b[3] = 0, 0
		c := Checksum(b)
		b[2], b[3] = byte(c>>8), byte(c)
		if !Verify(b) {
			t.Fatalf("Verify failed on valid packet (len %d)", len(b))
		}
		// Flip a bit; verification must fail (ones-complement detects all
		// single-bit errors).
		b[len(b)-1] ^= 0x10
		if Verify(b) {
			t.Fatalf("Verify passed on corrupted packet (len %d)", len(b))
		}
	}
}

func TestCombineConcatenation(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		a := randBytes(r, r.Intn(100))
		b := randBytes(r, r.Intn(100))
		whole := append(append([]byte{}, a...), b...)
		got := Fold(Combine(Sum(a), Sum(b), len(a)))
		want := Fold(Sum(whole))
		if got != want {
			t.Fatalf("Combine mismatch: lenA=%d lenB=%d got %#x want %#x",
				len(a), len(b), got, want)
		}
	}
}

func TestCombineProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		whole := append(append([]byte{}, a...), b...)
		return Fold(Combine(Sum(a), Sum(b), len(a))) == Fold(Sum(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedProtocol(t *testing.T) {
	// The CAB transmit protocol: host computes a seed over the first S
	// bytes (headers), hardware sums the body and combines. The result
	// must equal a full software checksum.
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 200; i++ {
		hdrLen := 2 * (1 + r.Intn(40)) // headers are whole 16-bit words
		pkt := randBytes(r, hdrLen+r.Intn(4000))
		seed := Sum(pkt[:hdrLen])
		body := Sum(pkt[hdrLen:])
		got := Finish(Combine(seed, body, hdrLen))
		want := Checksum(pkt)
		if got != want {
			t.Fatalf("seed protocol mismatch: hdr=%d len=%d", hdrLen, len(pkt))
		}
	}
}

func TestAdjustIncremental(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		b := randBytes(r, 2*(2+r.Intn(50)))
		s := Sum(b)
		// Change word at a random even offset.
		off := 2 * r.Intn(len(b)/2)
		old := uint16(b[off])<<8 | uint16(b[off+1])
		nw := uint16(r.Uint32())
		b[off], b[off+1] = byte(nw>>8), byte(nw)
		if Fold(Adjust(s, old, nw)) != Fold(Sum(b)) {
			t.Fatalf("Adjust mismatch at offset %d", off)
		}
	}
}

func TestPseudoHeaderSum(t *testing.T) {
	// Compare against an explicitly serialized pseudo-header.
	src, dst := uint32(0x0a000001), uint32(0x0a000002)
	proto, length := uint8(6), uint32(1500)
	b := []byte{
		byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src),
		byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst),
		0, proto,
		byte(length >> 24), byte(length >> 16), byte(length >> 8), byte(length),
	}
	if Fold(PseudoHeaderSum(src, dst, proto, length)) != Fold(Sum(b)) {
		t.Fatal("pseudo-header sum does not match serialized form")
	}
}

func TestUDPWire(t *testing.T) {
	if UDPWire(0) != 0xffff {
		t.Fatal("computed 0 must be sent as 0xffff")
	}
	if UDPWire(0x1234) != 0x1234 {
		t.Fatal("non-zero checksums pass through")
	}
}

func TestSwapInvolution(t *testing.T) {
	f := func(s uint32) bool {
		return Fold(Swap(Swap(s))) == Fold(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCommutativeAssociative(t *testing.T) {
	f := func(a, b, c uint32) bool {
		if Fold(Add(a, b)) != Fold(Add(b, a)) {
			return false
		}
		return Fold(Add(Add(a, b), c)) == Fold(Add(a, Add(b, c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
