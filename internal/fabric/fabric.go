// Package fabric assembles multi-switch HIPPI topologies on top of
// internal/hippi's per-hop machinery: a small topology grammar (linear
// chains, leaf/spine, 2-level fat-tree), deterministic seeded ECMP flow
// hashing across equal-cost uplinks, rack-aware node placement, and the
// standard CE marker for fabric-side ECN (queue-threshold marking that
// rewrites the IP header checksum in flight).
//
// The package is pure policy: internal/hippi owns serialization, HOL
// coupling, telemetry, and ledger charges per hop; fabric only decides
// which trunk each (frame, switch) pair takes and how frames are marked.
package fabric

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/checksum"
	"repro/internal/hippi"
	"repro/internal/wire"
)

// Kind enumerates the topology families.
type Kind int

const (
	// Single is the classic one-switch network: Install is a no-op and
	// every node stays on switch 0.
	Single Kind = iota
	// Linear is a chain of N switches, deterministic shortest-path routing
	// along the chain (no equal-cost choice, so no ECMP).
	Linear
	// LeafSpine is L edge switches each trunked to S spines: one
	// equal-cost uplink per spine, picked by ECMP flow hash.
	LeafSpine
	// FatTree is LeafSpine with two parallel trunks per leaf-spine pair
	// (a 2-level fat tree): 2*S equal-cost uplinks per leaf.
	FatTree
)

// Topology is a parsed topology spec.
type Topology struct {
	Kind Kind
	// N is the switch count for Linear.
	N int
	// Leaves and Spines size LeafSpine/FatTree; Parallel is the number of
	// trunks per leaf-spine pair (1 for LeafSpine, 2 for FatTree).
	Leaves, Spines, Parallel int
}

// Parse reads a topology spec:
//
//	single           one switch (the classic network)
//	linear:N         N switches in a chain          (N >= 2)
//	leafspine:LxS    L leaves, S spines             (L >= 2, S >= 1)
//	fattree:LxS      leafspine with 2 parallel trunks per pair
func Parse(spec string) (Topology, error) {
	bad := func() (Topology, error) {
		return Topology{}, fmt.Errorf("bad topology %q (want single|linear:N|leafspine:LxS|fattree:LxS)", spec)
	}
	name, arg, _ := strings.Cut(spec, ":")
	switch name {
	case "single":
		if arg != "" {
			return bad()
		}
		return Topology{Kind: Single}, nil
	case "linear":
		n, err := strconv.Atoi(arg)
		if err != nil || n < 2 {
			return bad()
		}
		return Topology{Kind: Linear, N: n}, nil
	case "leafspine", "fattree":
		ls, ss, ok := strings.Cut(arg, "x")
		l, err1 := strconv.Atoi(ls)
		s, err2 := strconv.Atoi(ss)
		if !ok || err1 != nil || err2 != nil || l < 2 || s < 1 {
			return bad()
		}
		t := Topology{Kind: LeafSpine, Leaves: l, Spines: s, Parallel: 1}
		if name == "fattree" {
			t.Kind = FatTree
			t.Parallel = 2
		}
		return t, nil
	}
	return bad()
}

// MustParse is Parse for known-good specs (tests, experiment tables).
func MustParse(spec string) Topology {
	t, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// String renders the canonical spec.
func (tp Topology) String() string {
	switch tp.Kind {
	case Linear:
		return fmt.Sprintf("linear:%d", tp.N)
	case LeafSpine:
		return fmt.Sprintf("leafspine:%dx%d", tp.Leaves, tp.Spines)
	case FatTree:
		return fmt.Sprintf("fattree:%dx%d", tp.Leaves, tp.Spines)
	}
	return "single"
}

// Edges is the number of edge switches nodes can be placed on: every
// switch in a chain, the leaves of a leaf/spine fabric.
func (tp Topology) Edges() int {
	switch tp.Kind {
	case Linear:
		return tp.N
	case LeafSpine, FatTree:
		return tp.Leaves
	}
	return 1
}

// Install assembles the topology on net: trunks plus the seeded ECMP
// route function. Single installs nothing (the classic single-switch
// path stays byte-identical). Node placement is the caller's choice
// (PlaceRacked is the standard one); ECN marking is opt-in via
// net.SetECN(threshold, fabric.MarkCE).
//
// Leaf i is switch i; spine j is switch Leaves+j. Trunk names follow the
// fault grammar's link= parameter: "leaf0-spine1" for leaf/spine,
// "leaf0-spine1.0" / ".1" for a fat tree's parallel pair, "sw0-sw1" for
// chain segments.
func (tp Topology) Install(net *hippi.Network, seed uint64) {
	if tp.Kind == Single {
		return
	}
	net.SetRoute(tp.router(seed, tp.addTrunks(net)))
}

// addTrunks adds the topology's trunks to net and returns their ids: chain
// segment i at index i, leaf i's trunk to spine j (parallel copy p) at
// trunkIndex(i, j, p).
func (tp Topology) addTrunks(net *hippi.Network) []hippi.TrunkID {
	var ids []hippi.TrunkID
	switch tp.Kind {
	case Linear:
		for i := 0; i < tp.N-1; i++ {
			ids = append(ids, net.AddTrunk(chainTrunk(i), hippi.SwitchID(i), hippi.SwitchID(i+1)))
		}
	case LeafSpine, FatTree:
		for i := 0; i < tp.Leaves; i++ {
			for j := 0; j < tp.Spines; j++ {
				for p := 0; p < tp.Parallel; p++ {
					ids = append(ids, net.AddTrunk(tp.TrunkName(i, j, p),
						hippi.SwitchID(i), hippi.SwitchID(tp.Leaves+j)))
				}
			}
		}
	}
	return ids
}

// trunkIndex is where addTrunks puts the trunk between leaf i and spine j
// (parallel copy p).
func (tp Topology) trunkIndex(i, j, p int) int { return (i*tp.Spines+j)*tp.Parallel + p }

// TrunkName names the trunk between leaf i and spine j (parallel copy p).
func (tp Topology) TrunkName(i, j, p int) string {
	if tp.Parallel <= 1 {
		return fmt.Sprintf("leaf%d-spine%d", i, j)
	}
	return fmt.Sprintf("leaf%d-spine%d.%d", i, j, p)
}

func chainTrunk(i int) string { return fmt.Sprintf("sw%d-sw%d", i, i+1) }

// router builds the per-hop route function over the trunk ids addTrunks
// returned. Chains walk toward the destination; leaf/spine fabrics hash
// each flow onto one of the equal-cost uplinks (seeded FNV-1a over the
// 5-tuple, so the same seed reproduces the same path assignment exactly)
// and take the direct downlink from the spine. Routing is static: a
// partitioned trunk keeps eating its flows until the window heals — the
// blast radius the partition experiments measure.
func (tp Topology) router(seed uint64, ids []hippi.TrunkID) hippi.RouteFunc {
	switch tp.Kind {
	case Linear:
		return func(f *hippi.Frame, at, dstSw hippi.SwitchID) hippi.TrunkID {
			if dstSw > at {
				return ids[at]
			}
			return ids[at-1]
		}
	case LeafSpine, FatTree:
		uplinks := uint64(tp.Spines * tp.Parallel)
		return func(f *hippi.Frame, at, dstSw hippi.SwitchID) hippi.TrunkID {
			u := int(flowHash(seed, f) % uplinks)
			if int(at) >= tp.Leaves {
				// Spine: one direct downlink per parallel copy; keep the
				// flow's copy so both directions of a parallel pair stay
				// flow-consistent.
				return ids[tp.trunkIndex(int(dstSw), int(at)-tp.Leaves, u%tp.Parallel)]
			}
			return ids[tp.trunkIndex(int(at), u/tp.Parallel, u%tp.Parallel)]
		}
	}
	return nil
}

// FNV-1a, by the book.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// flowHash is the ECMP hash: seeded FNV-1a over source node, destination
// node, IP protocol, and the transport port pair. Fragments (any frame
// whose IP fragment field is nonzero, including the first) fall back to
// the 3-tuple so every fragment of a datagram takes the same path.
func flowHash(seed uint64, f *hippi.Frame) uint64 {
	h := uint64(fnvOffset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	mix(seed)
	mix(uint64(f.Src))
	mix(uint64(f.Dst))
	d := f.Data
	ip := int(wire.LinkHdrLen)
	tr := ip + int(wire.IPHdrLen)
	if len(d) < tr {
		return h
	}
	mix(uint64(d[ip+9])) // protocol
	frag := binary.BigEndian.Uint16(d[ip+6:]) & 0x3fff
	if frag == 0 && len(d) >= tr+4 {
		mix(uint64(binary.BigEndian.Uint32(d[tr:]))) // src+dst ports
	}
	// Avalanche finalizer (splitmix64's): raw FNV-1a mod a power-of-two
	// uplink count degenerates to input-byte parity (the multiplier is
	// odd, so the low bit never mixes upward), and structured workloads
	// — sequential node ids, one well-known server port — make that
	// parity flow-invariant, collapsing ECMP onto a single uplink.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// MarkCE is the standard ECN marker for hippi.Network.SetECN: it CE-marks
// an ECN-capable (ECT) frame in place and updates the IP header checksum
// for the changed word by RFC 1624 (HC' = ~(~HC + ~m + m')), so the
// receiver's header validation still passes, and a header that arrived
// with a bad checksum still fails it. Non-ECT frames and frames already
// carrying CE are left alone (reported as unmarked). The transport
// checksum is unaffected: the pseudo-header excludes the TOS byte, and the
// CAB's receive engine sums past the first 80 bytes.
func MarkCE(data []byte) bool {
	ip := data[wire.LinkHdrLen:]
	if len(ip) < int(wire.IPHdrLen) {
		return false
	}
	if ip[wire.ECNOff]&0x3 != wire.ECNECT0 {
		return false
	}
	word := ip[wire.ECNOff&^1:] // the 16-bit word holding the TOS byte
	old := binary.BigEndian.Uint16(word)
	ip[wire.ECNOff] = ip[wire.ECNOff]&^byte(0x3) | wire.ECNCE
	hc := binary.BigEndian.Uint16(ip[10:])
	s := checksum.Adjust(uint32(^hc), old, binary.BigEndian.Uint16(word))
	binary.BigEndian.PutUint16(ip[10:], checksum.Finish(s))
	return true
}

// PlaceRacked is the standard workload placement: every server in the
// rack behind edge switch 0, clients spread round-robin across the
// remaining edge switches (or all of them when the fabric has a single
// edge). Unlisted nodes land on switch 0.
func (tp Topology) PlaceRacked(servers, clients []hippi.NodeID) func(hippi.NodeID) hippi.SwitchID {
	m := make(map[hippi.NodeID]hippi.SwitchID, len(servers)+len(clients))
	for _, s := range servers {
		m[s] = 0
	}
	edges := tp.Edges()
	for i, c := range clients {
		if edges > 1 {
			m[c] = hippi.SwitchID(1 + i%(edges-1))
		} else {
			m[c] = 0
		}
	}
	return func(id hippi.NodeID) hippi.SwitchID { return m[id] }
}
