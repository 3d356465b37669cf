package hippi

import "math/rand"

// Head-of-line blocking study (Section 2.1). The paper notes that a
// FIFO-queued input port on a switch-based network can use at most ~58% of
// the network bandwidth under uniform random traffic (Hluchyj & Karol),
// and that the CAB avoids this with multiple "logical channels" — queues
// of packets with different destinations. This slotted-crossbar model
// reproduces both regimes.

// HOLResult is the outcome of one queuing-discipline run.
type HOLResult struct {
	Ports       int
	Delivered   int
	Utilization float64 // delivered / (ports × slots)
}

// RunFIFO simulates n saturated input ports with single FIFO queues on an
// n×n crossbar for the given number of slots. Each slot, every output
// accepts at most one packet; an input whose head-of-line packet targets a
// taken output is blocked even if it holds packets for idle outputs.
func RunFIFO(n, slots int, seed int64) HOLResult {
	rng := rand.New(rand.NewSource(seed))
	// Each input's FIFO holds destination indices; saturated inputs are
	// modeled by refilling so queues never drain.
	const depth = 64
	queues := make([][]int, n)
	for i := range queues {
		for j := 0; j < depth; j++ {
			queues[i] = append(queues[i], rng.Intn(n))
		}
	}
	delivered := 0
	outTaken := make([]bool, n)
	for s := 0; s < slots; s++ {
		for i := range outTaken {
			outTaken[i] = false
		}
		// Random service order each slot avoids persistent port bias.
		order := rng.Perm(n)
		for _, in := range order {
			head := queues[in][0]
			if !outTaken[head] {
				outTaken[head] = true
				delivered++
				queues[in] = append(queues[in][1:], rng.Intn(n))
			}
		}
	}
	return HOLResult{
		Ports:       n,
		Delivered:   delivered,
		Utilization: float64(delivered) / float64(n*slots),
	}
}

// RunLogicalChannels simulates the same saturated crossbar with
// per-destination queues at each input (the CAB's logical channels / VOQ
// organization) and a simple iterative matching: blocked inputs may send a
// packet queued for any idle output, so head-of-line blocking disappears.
func RunLogicalChannels(n, slots int, seed int64) HOLResult {
	rng := rand.New(rand.NewSource(seed))
	// voq[i][d] is the number of packets input i holds for output d.
	// Saturation: every channel always has traffic available; we model a
	// bounded backlog refreshed randomly so the matching is non-trivial.
	voq := make([][]int, n)
	for i := range voq {
		voq[i] = make([]int, n)
		for j := 0; j < 4*n; j++ {
			voq[i][rng.Intn(n)]++
		}
	}
	delivered := 0
	for s := 0; s < slots; s++ {
		outTaken := make([]bool, n)
		inDone := make([]bool, n)
		// A few greedy matching iterations approximate maximal matching.
		for iter := 0; iter < 4; iter++ {
			order := rng.Perm(n)
			for _, in := range order {
				if inDone[in] {
					continue
				}
				// Longest-queue-first among idle outputs.
				best, bestLen := -1, 0
				for d := 0; d < n; d++ {
					if !outTaken[d] && voq[in][d] > bestLen {
						best, bestLen = d, voq[in][d]
					}
				}
				if best >= 0 {
					outTaken[best] = true
					inDone[in] = true
					voq[in][best]--
					voq[in][rng.Intn(n)]++ // refill: stay saturated
					delivered++
				}
			}
		}
	}
	return HOLResult{
		Ports:       n,
		Delivered:   delivered,
		Utilization: float64(delivered) / float64(n*slots),
	}
}
