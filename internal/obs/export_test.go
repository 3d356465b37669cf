package obs

import "repro/internal/units"

// NewCritRecBounded is NewCritRec with its event log bounded at max
// instead of math.MaxInt32, so a test can fill it.
func NewCritRecBounded(now func() units.Time, max int) *CritRec {
	return newCritRec(now, max, NewNames())
}

// ChainOn returns an empty chain of flow on host recording into r.
func ChainOn(r *CritRec, host string, flow int) Chain {
	return Chain{rec: r, host: r.Bind(host), flow: int32(flow)}
}

// TraceEvent is the trace's record type, for TestRecordLogsPointerFree.
type TraceEvent = traceEvent
