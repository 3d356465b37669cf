//go:build !amd64

package checksum

// No vector engine off amd64: Sum is sumGeneric.
const haveVector = false

func sumVector([]byte) uint64 { panic("checksum: no vector engine") }
