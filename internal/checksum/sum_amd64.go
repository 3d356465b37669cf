package checksum

var haveVector = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches.
func hasAVX2() bool

// sumVector is the AVX2 kernel (sum_amd64.s).
//
//go:noescape
func sumVector(b []byte) uint64
