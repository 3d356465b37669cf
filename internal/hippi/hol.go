package hippi

import "math/rand"

// Head-of-line blocking study (Section 2.1). The paper notes that a
// FIFO-queued input port on a switch-based network can use at most ~58% of
// the network bandwidth under uniform random traffic (Hluchyj & Karol),
// and that the CAB avoids this with multiple "logical channels" — queues
// of packets with different destinations. This slotted-crossbar model
// reproduces both regimes.

// RunFIFO simulates n saturated input ports with single FIFO queues on an
// n×n crossbar for the given number of slots. Each slot, every output
// accepts at most one packet; an input whose head-of-line packet targets a
// taken output is blocked even if it holds packets for idle outputs. It
// returns the utilization: packets delivered / (ports × slots).
func RunFIFO(n, slots int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	// Each input's FIFO is a ring of depth destination indices, head[i]
	// its front; saturated inputs are modeled by refilling so queues never
	// drain: the slot a delivered packet leaves is its replacement's.
	const depth = 64
	ring := make([]int, n*depth)
	for i := range ring {
		ring[i] = rng.Intn(n)
	}
	head := make([]int, n)
	delivered := 0
	outTaken := make([]bool, n)
	order := make([]int, n)
	for s := 0; s < slots; s++ {
		clear(outTaken)
		// Random service order each slot avoids persistent port bias.
		perm(rng, order)
		for _, in := range order {
			q := ring[in*depth : (in+1)*depth]
			if d := q[head[in]]; !outTaken[d] {
				outTaken[d] = true
				delivered++
				q[head[in]] = rng.Intn(n)
				head[in] = (head[in] + 1) % depth
			}
		}
	}
	return float64(delivered) / float64(n*slots)
}

// perm fills m with a random permutation of [0, len(m)), drawing from rng
// exactly as rng.Perm(len(m)) does, into m instead of a new slice.
func perm(rng *rand.Rand, m []int) {
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}

// RunLogicalChannels simulates the same saturated crossbar with
// per-destination queues at each input (the CAB's logical channels / VOQ
// organization) and a simple iterative matching: blocked inputs may send a
// packet queued for any idle output, so head-of-line blocking disappears.
// It returns the utilization, as RunFIFO does.
func RunLogicalChannels(n, slots int, seed int64) float64 {
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
	outTaken := make([]bool, n)
	inDone := make([]bool, n)
	order := make([]int, n)
	for s := 0; s < slots; s++ {
		clear(outTaken)
		clear(inDone)
		// A few greedy matching iterations approximate maximal matching.
		for iter := 0; iter < 4; iter++ {
			perm(rng, order)
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
	return float64(delivered) / float64(n*slots)
}
