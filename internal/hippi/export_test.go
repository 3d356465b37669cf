package hippi

// PoisonFreed makes every BufPool fill the buffers released to it with
// 0xDB (tests only).
func PoisonFreed(on bool) { poisonFreed = on }
