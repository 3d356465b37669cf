package pool_test

import (
	"testing"

	"repro/internal/pool"
	"repro/internal/race"
)

type rec struct {
	a, b int
	p    *rec
}

func TestListIsLIFOAndHandsOutDirty(t *testing.T) {
	var l pool.List[rec]
	x, y := l.Get(), l.Get()
	if x == y {
		t.Fatal("two live objects share storage")
	}
	x.a, y.a = 1, 2
	l.Put(x)
	l.Put(y)
	if got := l.Get(); got != y || got.a != 2 {
		t.Fatalf("Get after Put(x), Put(y) = %p (a=%d), want y %p with its old contents", got, got.a, y)
	}
	if got := l.Get(); got != x {
		t.Fatalf("second Get = %p, want x %p", got, x)
	}
}

func TestListCheckModeQuarantinesAndPoisons(t *testing.T) {
	var l pool.List[rec]
	l.Check(func(r *rec) { *r = rec{a: -1, b: -1} })
	x := l.Get()
	if x.a != -1 {
		t.Fatalf("new object handed out clean in check mode: %+v", *x)
	}
	x.a, x.b = 5, 6
	l.Put(x)
	if x.a != -1 || x.b != -1 {
		t.Fatalf("released object not poisoned: %+v", *x)
	}
	if y := l.Get(); y == x {
		t.Fatal("check mode handed out a released object")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of one object did not panic")
		}
	}()
	l.Put(x)
}

func TestListCheckNilPoisonZeroes(t *testing.T) {
	var l pool.List[rec]
	l.Check(nil)
	x := l.Get()
	x.a, x.p = 3, x
	l.Put(x)
	if *x != (rec{}) {
		t.Fatalf("released object not zeroed: %+v", *x)
	}
}

func TestBytesClassesByKilobyte(t *testing.T) {
	var p pool.Bytes
	b := p.Get(1500)
	if len(b) != 1500 || cap(b) != 2048 {
		t.Fatalf("Get(1500): len %d cap %d, want 1500/2048", len(b), cap(b))
	}
	p.Put(b)
	if c := p.Get(2000); &c[0] != &b[0] || len(c) != 2000 {
		t.Fatal("a buffer of the same class was not reused")
	}
	p.Put(make([]byte, 100)) // not a whole-kilobyte capacity: dropped
	if c := p.Get(100); cap(c) != 1024 {
		t.Fatalf("foreign buffer joined the list: cap %d", cap(c))
	}
}

func TestBytesCheckMode(t *testing.T) {
	var p pool.Bytes
	p.Check()
	b := p.Get(10)
	if b[0] != 0xdb || b[9] != 0xdb {
		t.Fatal("new buffer handed out unpoisoned in check mode")
	}
	for i := range b {
		b[i] = 1
	}
	p.Put(b)
	if b[0] != 0xdb {
		t.Fatal("released buffer not poisoned")
	}
	if c := p.Get(10); &c[0] == &b[0] {
		t.Fatal("check mode handed out a released buffer")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a second release of one buffer did not panic")
		}
	}()
	p.Put(b)
}

// TestListGetPutAllocNothing pins the steady state: once a list holds what
// its owner cycles through, taking and releasing allocates nothing.
func TestListGetPutAllocNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var l pool.List[rec]
	var p pool.Bytes
	l.Put(l.Get())
	p.Put(p.Get(784))
	if n := testing.AllocsPerRun(1000, func() {
		x, y := l.Get(), l.Get()
		l.Put(x)
		l.Put(y)
		p.Put(p.Get(784))
	}); n != 0 {
		t.Fatalf("steady-state Get/Put allocates %v per round", n)
	}
}
