package obs

// NewCritRecBounded is NewCritRec with its event log bounded at max
// instead of math.MaxInt32, so a test can fill it.
var NewCritRecBounded = newCritRec

// ChainOn returns an empty chain of flow on host recording into r.
func ChainOn(r *CritRec, host string, flow int) Chain {
	return Chain{rec: r, host: host, flow: int32(flow)}
}
