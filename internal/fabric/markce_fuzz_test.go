package fabric

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/checksum"
	"repro/internal/wire"
)

// FuzzMarkCE holds MarkCE's incremental checksum update to a full
// recompute. Any 20 bytes, marked ECT, make a header; with fix set its
// checksum is made valid first. A valid header marks to exactly the header
// that setting CE and re-summing gives, and a bad one stays bad: a hop
// never repairs a header it did not write.
func FuzzMarkCE(f *testing.F) {
	f.Fuzz(func(t *testing.T, hdr []byte, fix bool) {
		if len(hdr) < int(wire.IPHdrLen) {
			return
		}
		data := make([]byte, wire.LinkHdrLen+wire.IPHdrLen)
		ip := data[wire.LinkHdrLen:]
		copy(ip, hdr)
		ip[wire.ECNOff] = ip[wire.ECNOff]&^byte(0x3) | wire.ECNECT0
		if fix {
			binary.BigEndian.PutUint16(ip[10:], 0)
			binary.BigEndian.PutUint16(ip[10:], checksum.Checksum(ip))
		}
		valid := checksum.Verify(ip)
		want := bytes.Clone(ip)
		want[wire.ECNOff] |= wire.ECNCE
		binary.BigEndian.PutUint16(want[10:], 0)
		binary.BigEndian.PutUint16(want[10:], checksum.Checksum(want))

		if !MarkCE(data) {
			t.Fatalf("ECT header % x not marked", hdr[:wire.IPHdrLen])
		}
		if ip[wire.ECNOff]&0x3 != wire.ECNCE {
			t.Fatalf("marked header's ECN is %#b, want CE", ip[wire.ECNOff]&0x3)
		}
		switch {
		case valid && !bytes.Equal(ip, want):
			t.Fatalf("marked % x, want % x (CE plus a full recompute)", ip, want)
		case !valid && checksum.Verify(ip):
			t.Fatalf("a header with a bad checksum was repaired by marking: % x", ip)
		}
	})
}
