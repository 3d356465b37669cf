package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "workload/w", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "rep/0", Start: 10 * ms, End: 50 * ms},
		{ID: 2, Parent: 1, Name: "build", Start: 10 * ms, End: 15 * ms},
		{ID: 3, Parent: 1, Name: "run", Start: 15 * ms, End: 45 * ms},
		{ID: 4, Parent: 0, Name: "rep/1", Start: 50 * ms, End: 95 * ms},
		{ID: 5, Parent: 4, Name: "run", Start: 55 * ms, End: 90 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{15 * ms, 5 * ms, 5 * ms, 30 * ms, 10 * ms, 35 * ms}
	var total time.Duration
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%d] = %v, want %v", i, self[i], w)
		}
		total += self[i]
	}
	if total != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", total)
	}
	by := selfByName(spans)
	if by["run"] != 65*ms || by["rep/*"] != 15*ms {
		t.Errorf("by name: run %v rep/* %v", by["run"], by["rep/*"])
	}
}

func TestTracerNestsAndExports(t *testing.T) {
	tr := newTracer("w")
	root := tr.begin("workload/w")
	rep := tr.begin("rep/0")
	run := tr.begin("run")
	tr.end(run)
	tr.end(rep)
	tr.end(root)
	if tr.spans[run].Parent != rep || tr.spans[rep].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	b, err := tr.chromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct {
				ID, Parent int
				Workload   string
			}
		}
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[2].Args.Parent != rep || doc.TraceEvents[2].Args.Workload != "w" {
		t.Fatalf("chrome events: %+v", doc.TraceEvents)
	}

	// The untraced run: a nil tracer accepts every call.
	var off *tracer
	off.end(off.begin("run"))
}
