package netobs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzNetObsDump feeds arbitrary bytes to the dump type cmd/trace decodes
// (a saved loadgen or ttcp -netobs-json capture). An accepted input must
// reach a fixed point under marshal → unmarshal → marshal, so a capture
// re-saved by any tool reads back the same, and re-rendering it as Chrome
// counter tracks must not panic. The committed corpus holds two real
// captures: a ttcp transfer with drops (rtx events) and a leaf-spine
// loadgen run (named trunk ports).
func FuzzNetObsDump(f *testing.F) {
	f.Add([]byte(`{"flows":[],"wires":[]}`))
	f.Add([]byte(`{"flows":[{"host":"a","samples":[null,{"t_ns":5,"cwnd":1}],"rtx":[{"t_ns":1,"kind":"rto"}]}],"wires":[{"label":"x","window_ns":0,"ports":[{"node":3,"name":"l0>","tx_busy_per_mille":[1000,2]}]}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		var d Dump
		if json.Unmarshal(in, &d) != nil {
			return
		}
		once := d.JSON()
		var back Dump
		if err := json.Unmarshal(once, &back); err != nil {
			t.Fatalf("a marshaled dump does not unmarshal: %v\n%s", err, once)
		}
		if twice := back.JSON(); !bytes.Equal(once, twice) {
			t.Fatalf("dump is not a fixed point:\n%s\nthen\n%s", once, twice)
		}
		if c := back.Chrome(); !json.Valid(c) {
			t.Fatalf("Chrome rendered invalid JSON:\n%s", c)
		}
	})
}
