package checksum

import "testing"

// FuzzSum holds Sum and sumGeneric to the naive reference for any bytes,
// at any start offset, and Sum to the concatenation rule at any split k:
// the sums of b[:k] and b[k:], combined, fold to the sum of b. The seed
// corpus (testdata/fuzz) holds the lengths around the loop's 64-byte block
// — 0, 1, 63, 64, 65 — and around the vector engine's 128-byte block — 127,
// 128, 129, 255 at odd offsets — and all-zero and all-0xFF input.
func FuzzSum(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte, off uint8, k uint16) {
		b = b[int(off)%(len(b)+1):]
		sum, want := Fold(Sum(b)), Fold(refSum(b))
		if sum != want {
			t.Fatalf("Fold(Sum) = %#04x, reference %#04x (len %d)", sum, want, len(b))
		}
		if g := Fold(sumGeneric(b)); g != want {
			t.Fatalf("Fold(sumGeneric) = %#04x, reference %#04x (len %d)", g, want, len(b))
		}
		n := int(k) % (len(b) + 1)
		if got := Fold(Combine(Sum(b[:n]), Sum(b[n:]), n)); got != sum {
			t.Fatalf("split at %d of %d: Combine folds to %#04x, Sum to %#04x", n, len(b), got, sum)
		}
	})
}
