package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// TestSmokeTiny runs all five workloads at the tiny scale, untraced and
// traced, through the same code path the gate uses: every output check
// runs, and every metric BENCHMARK.json names must come back.
func TestSmokeTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: 0.01, trace: traced, tiny: true, outDir: t.TempDir()}
			var out bytes.Buffer
			if err := execute(context.Background(), cfg, &out); err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.name, traced, err, out.String())
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				t.Fatalf("%s: last line is not a result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %+v", w.name, traced, res)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q", w.name, traced, m.Name, v.Unit)
				}
			}
			if traced {
				var share float64
				for _, l := range hostLayers {
					share += res.Metrics["host_cpu_share."+l].Value
				}
				if n := res.Metrics["host_cpu.samples"].Value; n > 0 && (share < 0.99 || share > 1.01) {
					t.Errorf("%s: host_cpu_share.* sums to %v over %v samples", w.name, share, n)
				}
			}
		}
	}
}

// TestSecondSeed checks that another seed still passes every output check.
func TestSecondSeed(t *testing.T) {
	for _, w := range workloads {
		cfg := config{workload: w.name, seed: 2, seconds: 0.01, tiny: true, outDir: t.TempDir()}
		var out bytes.Buffer
		if err := execute(context.Background(), cfg, &out); err != nil {
			t.Errorf("%s seed 2: %v\n%s", w.name, err, out.String())
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if err := execute(context.Background(), config{workload: "nope", seconds: 1}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
