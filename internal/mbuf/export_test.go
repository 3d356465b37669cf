package mbuf

// PoisonFreed makes Free fill every cluster it returns to the pool with
// 0xDB (tests only).
func PoisonFreed(on bool) { poisonFreed = on }
