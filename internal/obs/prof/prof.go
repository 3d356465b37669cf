// Package prof is a virtual-time CPU profiler for the simulated stack.
//
// Unlike a wall-clock sampling profiler it is exact: the kernel charges
// every virtual nanosecond of CPU work through kern.Work/Ctx.Charge, and each
// charge carries a *Node identifying the layer stack it was issued under
// (e.g. snd;ttcp-snd;socket;tcp_output;ip_output;cabdrv). The profiler
// accumulates that time per (host, stack, category, flow), so the sum over
// a host's tree equals the kernel's cpu_busy_ns to the nanosecond.
//
// Two properties mirror the rest of the telemetry layer (package obs):
//
//   - Determinism. Nodes are interned in creation order and every exporter
//     sorts before emitting, so identical seeds produce byte-identical
//     folded-stacks text and JSON.
//
//   - Zero cost when disabled. A nil *Profiler or *Node is a valid no-op
//     sink: every hot-path method returns immediately without allocating,
//     and profiling never charges simulated CPU or bus time.
package prof

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
)

// cell is one accumulation bucket under a node: the time charged in one
// category for one flow.
type cell struct {
	cat  int
	flow int
	ns   int64
}

// Node is one interned frame of a layer stack. Nodes form a trie rooted at
// a host root; CPU time is accumulated on the node the charge was issued
// under ("self" time — children account for their own).
type Node struct {
	prof     *Profiler
	name     string
	parent   *Node
	children []*Node
	// self holds the node's cells sorted by (flow, cat), found by binary
	// search: a handful on a bulk transfer's nodes, one per flow and
	// category on those every connection of a many-flow run passes
	// through. No hashing on the path every CPU charge takes.
	self []cell
}

// Child returns the child frame named name, interning it on first use.
// Child on a nil node returns nil (profiling disabled).
func (n *Node) Child(name string) *Node {
	if n == nil {
		return nil
	}
	if c := n.child(name); c != nil {
		return c
	}
	c := &Node{prof: n.prof, name: name, parent: n}
	n.children = append(n.children, c)
	return c
}

// child returns the existing child frame named name, or nil. A node has a
// few children (the layers called under it), so a scan is cheaper than
// hashing the name.
func (n *Node) child(name string) *Node {
	for _, c := range n.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Add accumulates d nanoseconds of CPU time in category cat for flow on
// this node. No-op on a nil node.
func (n *Node) Add(cat, flow int, d int64) {
	if n == nil || d <= 0 {
		return
	}
	lo, hi := 0, len(n.self)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := &n.self[m]; c.flow < flow || c.flow == flow && c.cat < cat {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(n.self) && n.self[lo].flow == flow && n.self[lo].cat == cat {
		n.self[lo].ns += d
		return
	}
	n.self = slices.Insert(n.self, lo, cell{cat: cat, flow: flow, ns: d})
}

// Total returns the node's self time summed over categories and flows.
func (n *Node) Total() int64 {
	if n == nil {
		return 0
	}
	var t int64
	for _, c := range n.self {
		t += c.ns
	}
	return t
}

// TreeTotal returns the node's self time plus all descendants'.
func (n *Node) TreeTotal() int64 {
	if n == nil {
		return 0
	}
	t := n.Total()
	for _, c := range n.children {
		t += c.TreeTotal()
	}
	return t
}

// path returns the node's frames from the host root down, excluding the
// profiler's synthetic root.
func (n *Node) path() []string {
	var frames []string
	for cur := n; cur != nil && cur.parent != nil; cur = cur.parent {
		frames = append(frames, cur.name)
	}
	// Reverse (walked leaf → root).
	for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
		frames[i], frames[j] = frames[j], frames[i]
	}
	return frames
}

// Profiler owns the per-host stack tries. Construct with New; a nil
// *Profiler is a valid disabled profiler.
type Profiler struct {
	cats []string
	root Node // synthetic root; children are host roots
}

// New returns a profiler whose category axis is labeled by cats (index ==
// the kernel's Category value).
func New(cats []string) *Profiler {
	p := &Profiler{cats: append([]string(nil), cats...)}
	p.root.prof = p
	return p
}

// Host returns (creating on first use) the root node for host. Returns nil
// on a nil profiler.
func (p *Profiler) Host(name string) *Node {
	if p == nil {
		return nil
	}
	return p.root.Child(name)
}

// HostTotal returns all CPU time recorded under host (0 if unknown): the
// profiler's view of the kernel's cpu_busy_ns.
func (p *Profiler) HostTotal(name string) int64 {
	if p == nil {
		return 0
	}
	return p.root.child(name).TreeTotal()
}

// catName labels category c.
func (p *Profiler) catName(c int) string {
	if c >= 0 && c < len(p.cats) {
		return p.cats[c]
	}
	return fmt.Sprintf("cat%d", c)
}

// visit walks the trie depth-first in creation order.
func (n *Node) visit(fn func(*Node)) {
	fn(n)
	for _, c := range n.children {
		c.visit(fn)
	}
}

// Folded renders the profile in folded-stacks text (flamegraph.pl /
// speedscope "collapsed" format): one line per distinct
// host;frames...;category stack, flows aggregated, sorted lexicographically.
// Empty string when the profiler is nil or recorded nothing.
func (p *Profiler) Folded() string {
	if p == nil {
		return ""
	}
	type line struct {
		stack string
		ns    int64
	}
	var lines []line
	p.root.visit(func(n *Node) {
		if len(n.self) == 0 {
			return
		}
		byCat := make(map[int]int64)
		for _, c := range n.self {
			byCat[c.cat] += c.ns
		}
		prefix := strings.Join(n.path(), ";")
		for cat, ns := range byCat {
			lines = append(lines, line{prefix + ";" + p.catName(cat), ns})
		}
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i].stack < lines[j].stack })
	var b strings.Builder
	for _, l := range lines {
		fmt.Fprintf(&b, "%s %d\n", l.stack, l.ns)
	}
	return b.String()
}

// StackEntry is one (stack, category, flow) accumulation in the JSON
// export.
type StackEntry struct {
	Stack    string `json:"stack"`
	Category string `json:"category"`
	Flow     int    `json:"flow,omitempty"`
	Ns       int64  `json:"ns"`
}

// HostProfile is one host's exported profile.
type HostProfile struct {
	Host    string       `json:"host"`
	TotalNs int64        `json:"total_ns"`
	Stacks  []StackEntry `json:"stacks"`
}

// Snapshot is the full exported profile: hosts in creation order, entries
// sorted by (stack, category, flow). Slices only, so marshaling is
// byte-deterministic.
type Snapshot struct {
	Categories []string      `json:"categories"`
	Hosts      []HostProfile `json:"hosts"`
}

// Snapshot exports the profile.
func (p *Profiler) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	s := Snapshot{Categories: append([]string(nil), p.cats...)}
	for _, h := range p.root.children {
		hp := HostProfile{Host: h.name, TotalNs: h.TreeTotal()}
		h.visit(func(n *Node) {
			if len(n.self) == 0 {
				return
			}
			stack := strings.Join(n.path()[1:], ";") // drop the host frame
			for _, c := range n.self {
				hp.Stacks = append(hp.Stacks, StackEntry{
					Stack:    stack,
					Category: p.catName(c.cat),
					Flow:     c.flow,
					Ns:       c.ns,
				})
			}
		})
		sort.Slice(hp.Stacks, func(i, j int) bool {
			a, b := hp.Stacks[i], hp.Stacks[j]
			if a.Stack != b.Stack {
				return a.Stack < b.Stack
			}
			if a.Category != b.Category {
				return a.Category < b.Category
			}
			return a.Flow < b.Flow
		})
		s.Hosts = append(s.Hosts, hp)
	}
	return s
}

// JSON renders the snapshot as deterministic, indented JSON.
func (s Snapshot) JSON() []byte {
	return obs.JSON(s)
}
