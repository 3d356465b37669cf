package cabdrv

// PoisonFreed makes every driver poison the copy-out requests released to
// its free list (tests only).
func PoisonFreed(on bool) { poisonFreed = on }
