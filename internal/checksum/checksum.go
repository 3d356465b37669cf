// Package checksum implements the Internet (RFC 1071) ones-complement
// checksum and the partial-sum algebra the outboard-checksumming protocol
// relies on.
//
// The CAB's checksum engines always compute a plain ones-complement sum
// over a span of a packet. The host supplies a seed — the sum of the
// headers (and pseudo-header) that the hardware skips — and the hardware
// combines seed and body sum to produce the final checksum field
// (Section 4.3 of the paper). This package provides exactly those pieces:
// unfolded partial sums, sum concatenation (with the odd-length byte-swap
// rule), folding, seeding, incremental adjustment, and the TCP/UDP
// pseudo-header.
//
// What is exact is the folded sum. A partial sum is a uint32 that stands
// for its residue mod 0xffff (with 0 reserved for all-zero data): Sum, Add,
// Swap and Combine promise Fold of their result, never which of the many
// unfolded representatives comes back, so callers compare, store on the
// wire and digest folded values only. That freedom is what lets Sum add
// eight bytes at a time, and in the host's native (little-endian) byte
// order: the ones-complement sum does not depend on byte order (RFC 1071
// §2(B)), so Sum swaps the bytes of its folded result once instead of
// every word it loads.
package checksum

import (
	"encoding/binary"
	"math/bits"
)

// Sum returns the unfolded 16-bit ones-complement partial sum of b, treating
// b as a sequence of big-endian 16-bit words starting on an even offset. A
// trailing odd byte is padded with a zero low byte, per RFC 1071.
//
// The returned value is already partially reduced (it fits in 32 bits for
// any input); combine partial sums with Add or Combine and reduce with Fold.
// Only Fold(Sum(b)) is specified: the unfolded value is some member of the
// folded sum's congruence class mod 0xffff, not a particular one.
func Sum(b []byte) uint32 {
	// Eight bytes per load, little-endian, which is a plain load on the
	// hosts this runs on. A 64-bit word is four 16-bit words and
	// 2^16 ≡ 1 (mod 0xffff), so a ones-complement sum of 64-bit words (add,
	// then add the carry back in) is in the same class as the sum of the
	// 16-bit words. Each of those words is the byte swap of the big-endian
	// word RFC 1071 sums, and the ones-complement sum of swapped words is
	// the swap of the sum, so the folded result is swapped back once at the
	// end. The carry out of each add is the carry into the next — one
	// add-with-carry chain — and the last one comes back around at the
	// end. The tail (under eight bytes) cannot carry; its pairs are
	// little-endian too, so a trailing odd byte is the low byte.
	var s, c, tail uint64
	for len(b) >= 64 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[8:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[16:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[24:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[32:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[40:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[48:]), c)
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b[56:]), c)
		b = b[64:]
	}
	for len(b) >= 8 {
		s, c = bits.Add64(s, binary.LittleEndian.Uint64(b), c)
		b = b[8:]
	}
	for len(b) >= 2 {
		tail += uint64(b[0]) | uint64(b[1])<<8
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0])
	}
	s, c = bits.Add64(s, tail, c)
	// End-around carry. If this add carries too, s is left 0 and the
	// second carry cannot overflow it.
	s, c = bits.Add64(s, 0, c)
	s += c
	// Reduce to 32 bits: twice, because the first fold can reach 2^33-2.
	// Then to 16, which is where the byte swap is exact.
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	return uint32(bits.ReverseBytes16(Fold(uint32(s))))
}

// Add combines two partial sums that both start on even byte offsets.
func Add(a, b uint32) uint32 {
	s := uint64(a) + uint64(b)
	if s > 0xffffffff {
		s = (s & 0xffffffff) + (s >> 32)
	}
	return uint32(s)
}

// Swap byte-swaps a partial sum; it is the adjustment needed when a
// partial sum was computed over data that actually begins at an odd byte
// offset within the checksummed span.
func Swap(s uint32) uint32 {
	f := Fold(s)
	return uint32(f>>8 | f<<8)
}

// Combine returns the partial sum of the concatenation of two byte ranges
// whose individual sums are a and b, where the first range has length
// aLen. If aLen is odd, b's sum is byte-swapped before adding, per the
// ones-complement concatenation rule.
func Combine(a, b uint32, aLen int) uint32 {
	if aLen%2 != 0 {
		b = Swap(b)
	}
	return Add(a, b)
}

// Fold reduces an unfolded partial sum to 16 bits.
func Fold(s uint32) uint16 {
	for s > 0xffff {
		s = (s & 0xffff) + (s >> 16)
	}
	return uint16(s)
}

// Finish folds and complements a partial sum, yielding the value stored in
// a checksum header field.
func Finish(s uint32) uint16 { return ^Fold(s) }

// Checksum returns the Internet checksum of b (folded and complemented).
func Checksum(b []byte) uint16 { return Finish(Sum(b)) }

// Verify reports whether data whose checksum field is included in b sums
// to the all-ones pattern, i.e. the checksum is valid.
func Verify(b []byte) bool { return Fold(Sum(b)) == 0xffff }

// VerifySum reports whether an unfolded partial sum over data that
// included its checksum field is valid.
func VerifySum(s uint32) bool { return Fold(s) == 0xffff }

// Adjust incrementally updates partial sum s when a 16-bit word of the
// summed data changes from old to new (RFC 1624 style, on the unfolded
// sum: subtract old, add new in ones-complement arithmetic).
func Adjust(s uint32, old, new uint16) uint32 {
	// Ones-complement subtraction of old is addition of ^old.
	s = Add(s, uint32(^old))
	s = Add(s, uint32(new))
	return s
}

// PseudoHeaderSum returns the partial sum of the TCP/UDP pseudo-header for
// 32-bit source and destination addresses, protocol number proto, and
// transport segment length (header + data) length.
func PseudoHeaderSum(src, dst uint32, proto uint8, length uint32) uint32 {
	s := uint32(src>>16) + uint32(src&0xffff)
	s += uint32(dst>>16) + uint32(dst&0xffff)
	s += uint32(proto)
	s += length >> 16
	s += length & 0xffff
	return Add(s, 0)
}

// UDPWire maps a computed UDP checksum to its wire representation: a
// computed value of 0 is transmitted as 0xffff because 0 means "no
// checksum". The computed value is 0 whenever the summed data folds to
// 0xffff, about one datagram in 65,535, so both producers of a wire
// checksum apply the rule: UDP's software path, and the CAB's transmit
// engine for every protocol (a TCP receiver accepts either form of
// ones-complement zero).
func UDPWire(c uint16) uint16 {
	if c == 0 {
		return 0xffff
	}
	return c
}
