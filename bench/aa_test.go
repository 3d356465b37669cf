package main

import "testing"

func TestCompareAA(t *testing.T) {
	mk := func(wall, mallocs, events float64) suite {
		s := suite{EndToEnd: map[string]map[string]value{}, PerLayer: map[string]map[string]value{}}
		for _, w := range workloads {
			s.EndToEnd[w.name] = map[string]value{}
			s.PerLayer[w.name] = map[string]value{}
			for _, m := range endToEnd {
				s.EndToEnd[w.name][m.Name] = value{Value: 1}
			}
			for _, m := range perLayer {
				s.PerLayer[w.name][m.Name] = value{Value: 1}
			}
			s.EndToEnd[w.name]["wall_s"] = value{Value: wall}
			s.EndToEnd[w.name]["mallocs"] = value{Value: mallocs}
			s.PerLayer[w.name]["sim.events_total"] = value{Value: events}
			// Host-time layer numbers are noisy and never compared.
			s.PerLayer[w.name]["host_cpu_share.sim"] = value{Value: wall}
		}
		return s
	}
	failures := func(a, b suite) map[string]bool {
		out := map[string]bool{}
		for _, r := range compareAA(a, b) {
			if !r.pass {
				out[r.metric] = true
			}
		}
		return out
	}

	bound := func(name string) float64 {
		for _, m := range endToEnd {
			if m.Name == name {
				return m.Bound
			}
		}
		t.Fatalf("no end-to-end metric %s", name)
		return 0
	}
	inWall, outWall := 1+0.9*bound("wall_s"), 1+1.2*bound("wall_s")
	inMallocs, outMallocs := 1000*(1+0.9*bound("mallocs")), 1000*(1+1.2*bound("mallocs"))

	base := mk(1.00, 1000, 68296)
	if f := failures(base, mk(inWall, inMallocs, 68296)); len(f) != 0 {
		t.Errorf("gaps inside the bounds failed: %v", f)
	}
	// The gap is taken against the better side, so order does not matter.
	for _, pair := range [][2]suite{{base, mk(outWall, 1000, 68296)}, {mk(outWall, 1000, 68296), base}} {
		if f := failures(pair[0], pair[1]); len(f) != 1 || !f["wall_s"] {
			t.Errorf("wall gap beyond its bound: failures %v, want wall_s only", f)
		}
	}
	if f := failures(base, mk(1.00, outMallocs, 68296)); len(f) != 1 || !f["mallocs"] {
		t.Errorf("mallocs gap beyond its bound: failures %v, want mallocs only", f)
	}
	if f := failures(base, mk(1.00, 1000, 68297)); len(f) != 1 || !f["sim.events_total"] {
		t.Errorf("one event more: failures %v, want sim.events_total only", f)
	}
}
