package prof

import (
	"bytes"
	"strings"
	"testing"
)

var testCats = []string{"app", "syscall", "copy", "csum"}

func TestNilProfilerIsNoOp(t *testing.T) {
	var p *Profiler
	n := p.Host("A")
	if n != nil {
		t.Fatal("nil profiler returned a node")
	}
	n.Add(1, 0, 100) // must not panic
	if n.Child("socket") != nil {
		t.Fatal("nil node returned a child")
	}
	if n.Total() != 0 || n.TreeTotal() != 0 {
		t.Fatal("nil node has time")
	}
	if p.Host("A").TreeTotal() != 0 {
		t.Fatal("nil profiler has time")
	}
	if p.Folded() != "" {
		t.Fatal("nil profiler folded non-empty")
	}
	if s := p.Snapshot(); len(s.Hosts) != 0 {
		t.Fatal("nil profiler snapshot non-empty")
	}
}

func TestNilNodeAddAllocates(t *testing.T) {
	var n *Node
	allocs := testing.AllocsPerRun(1000, func() {
		n.Add(2, 7, 123)
	})
	if allocs != 0 {
		t.Fatalf("nil Node.Add allocates %v per call", allocs)
	}
}

func TestAccumulationAndTotals(t *testing.T) {
	p := New(testCats)
	host := p.Host("A")
	sock := host.Child("socket")
	tcp := sock.Child("tcp_output")
	sock.Add(1, 5, 100)
	sock.Add(1, 5, 50) // same cell accumulates
	sock.Add(2, 5, 30)
	tcp.Add(3, 5, 70)
	if got := sock.Total(); got != 180 {
		t.Fatalf("sock.Total = %d, want 180", got)
	}
	if got := sock.TreeTotal(); got != 250 {
		t.Fatalf("sock.TreeTotal = %d, want 250", got)
	}
	if got := p.Snapshot().Hosts[0].TotalNs; got != 250 {
		t.Fatalf("host A's total_ns = %d, want 250", got)
	}
	// Child interning: same pointer on repeat lookup.
	if host.Child("socket") != sock {
		t.Fatal("Child did not intern")
	}
}

func TestFoldedFormat(t *testing.T) {
	p := New(testCats)
	a := p.Host("A")
	a.Child("socket").Add(2, 1, 100)
	a.Child("socket").Add(2, 2, 40) // second flow, same cat: aggregated
	a.Child("socket").Child("tcp_output").Add(3, 1, 9)
	a.Add(0, 0, 5)
	folded := p.Folded()
	want := strings.Join([]string{
		"A;app 5",
		"A;socket;copy 140",
		"A;socket;tcp_output;csum 9",
	}, "\n") + "\n"
	if folded != want {
		t.Fatalf("folded:\n%q\nwant:\n%q", folded, want)
	}
}

func TestFoldedDeterministic(t *testing.T) {
	build := func() *Profiler {
		p := New(testCats)
		a := p.Host("A")
		for flow := 1; flow <= 8; flow++ {
			for cat := 0; cat < 4; cat++ {
				a.Child("socket").Add(cat, flow, int64(cat*100+flow))
				a.Child("socket").Child("ip_output").Add(cat, flow, int64(flow))
			}
		}
		p.Host("B").Child("intr").Add(1, 0, 42)
		return p
	}
	p1, p2 := build(), build()
	if p1.Folded() != p2.Folded() {
		t.Fatal("folded output not deterministic")
	}
	if !bytes.Equal(p1.Snapshot().JSON(), p2.Snapshot().JSON()) {
		t.Fatal("snapshot JSON not deterministic")
	}
}

func TestSnapshotShape(t *testing.T) {
	p := New(testCats)
	a := p.Host("A")
	a.Child("socket").Add(2, 9, 100)
	a.Child("socket").Add(3, 9, 11)
	s := p.Snapshot()
	if len(s.Hosts) != 1 || s.Hosts[0].Host != "A" {
		t.Fatalf("hosts = %+v", s.Hosts)
	}
	hp := s.Hosts[0]
	if hp.TotalNs != 111 {
		t.Fatalf("TotalNs = %d", hp.TotalNs)
	}
	if len(hp.Stacks) != 2 || hp.Stacks[0].Stack != "socket" ||
		hp.Stacks[0].Category != "copy" || hp.Stacks[0].Flow != 9 {
		t.Fatalf("stacks = %+v", hp.Stacks)
	}
	// Per-stack sum equals the host total (folded aggregates match too).
	var sum int64
	for _, e := range hp.Stacks {
		sum += e.Ns
	}
	if sum != hp.TotalNs {
		t.Fatalf("stack sum %d != total %d", sum, hp.TotalNs)
	}
}

func TestUnknownCategoryLabel(t *testing.T) {
	p := New(testCats)
	p.Host("A").Add(17, 0, 3)
	if got := p.Folded(); got != "A;cat17 3\n" {
		t.Fatalf("folded = %q", got)
	}
}
