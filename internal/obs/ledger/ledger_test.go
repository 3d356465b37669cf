package ledger_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/mbuf"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/obs/ledger"
	"repro/internal/socket"
	"repro/internal/taxonomy"
	"repro/internal/ttcp"
	"repro/internal/units"
	"repro/internal/wire"
)

// TestDisabledLedgerZeroAlloc pins the nil-hook contract: with the ledger
// off every instrumentation site is one nil check — no allocation, no
// record, no virtual-time charge.
func TestDisabledLedgerZeroAlloc(t *testing.T) {
	var h *ledger.Hook
	sp := seg(obs.Seg{Flow: 1, Off: 0, Len: 100, PayloadOff: 40})
	if n := testing.AllocsPerRun(1000, func() {
		h.Touch(1, 0, 100, ledger.CPUCopy, "test", 0, 0)
		h.TouchP(sp, 40, 60, ledger.SDMAToNet, ledger.LayerMDMA, ledger.FlagCsumFlight)
		h.TouchP(nil, 0, 100, ledger.MDMATx, ledger.LayerMDMA, 0)
		h.Unattributed(ledger.CPUCsum, 100)
		_ = h.NextDesc()
		_ = h.Host()
		_ = h.Enabled()
	}); n != 0 {
		t.Fatalf("disabled ledger allocated %.1f times per run, want 0", n)
	}
}

// seg returns a trace-less span carrying g: the ledger-only handle.
func seg(g obs.Seg) *obs.Span { return (*obs.Trace)(nil).StartSeg("", 0, g) }

// unattributed returns the ledger's exported unattributed totals.
func unattributed(t *testing.T, led *ledger.Ledger) []map[string]any {
	t.Helper()
	var v struct {
		Unattributed []map[string]any `json:"unattributed"`
	}
	if err := json.Unmarshal(led.JSON(), &v); err != nil {
		t.Fatal(err)
	}
	return v.Unattributed
}

// TestTouchPZeroAlloc pins the enabled hot path: mapping a packet range
// through a span — nil, trace-less, or live on a trace — allocates nothing
// beyond the records it appends.
func TestTouchPZeroAlloc(t *testing.T) {
	now := units.Time(0)
	clock := func() units.Time { return now }
	h := ledger.New(clock).Hook("A")
	tr := obs.NewTrace(clock)
	live := tr.StartSeg("A", 0, obs.Seg{Flow: 1, Len: 100, PayloadOff: 40})
	dark := seg(obs.Seg{Flow: 1, Len: 100, PayloadOff: 40})
	if n := testing.AllocsPerRun(1000, func() {
		h.TouchP(nil, 0, 100, ledger.MDMATx, ledger.LayerMDMA, 0)
		h.TouchP(live, 0, 40, ledger.MDMATx, ledger.LayerMDMA, 0) // header only
		h.TouchP(dark, 0, 40, ledger.MDMATx, ledger.LayerMDMA, 0)
	}); n != 0 {
		t.Fatalf("TouchP allocated %.1f times per run, want 0", n)
	}
}

// TestTouchPClipsAndAttributes pins the span-to-stream mapping: header
// bytes record nothing, payload bytes translate to stream offsets with the
// segment's flags and descriptor, a pure-ACK carrier (Len 0) and a missing
// span both count as unattributed, and a span whose trace was dropped on a
// legacy path still attributes.
func TestTouchPClipsAndAttributes(t *testing.T) {
	now := units.Time(0)
	clock := func() units.Time { return now }
	led := ledger.New(clock)
	h := led.Hook("A")
	tr := obs.NewTrace(clock)
	tr.EnableCrit()
	data := tr.StartSeg("A", 0, obs.Seg{Flow: 9, Off: 1000, Len: 60, PayloadOff: 40, Desc: 5, Rtx: true})

	h.TouchP(data, 0, 40, ledger.SDMAToNet, ledger.LayerSDMA, 0) // header only
	if n := len(led.Records()); n != 0 {
		t.Fatalf("header-only range recorded %d touches", n)
	}
	if u := unattributed(t, led); len(u) != 0 {
		t.Fatalf("header-only range counted unattributed: %v", u)
	}

	data.DropTrace()
	h.TouchP(data, 30, 40, ledger.SDMAToNet, ledger.LayerSDMA, ledger.FlagCsumFlight)
	want := ledger.Record{Flow: 9, Off: 1000, Len: 30, Kind: ledger.SDMAToNet, Layer: ledger.LayerSDMA,
		Flags: ledger.FlagCsumFlight | ledger.FlagRtx, Desc: 5}
	got := led.Records()
	if len(got) == 1 {
		want.Host = got[0].Host
	}
	if len(got) != 1 || got[0] != want || led.Name(got[0].Layer) != "sdma" || led.Name(got[0].Host) != "A" {
		t.Fatalf("records = %+v, want [%+v] on host A", got, want)
	}

	h.TouchP(tr.StartCarrier("A", 9), 0, 54, ledger.MDMATx, ledger.LayerMDMA, 0)
	h.TouchP(nil, 0, 6, ledger.MDMATx, ledger.LayerMDMA, 0)
	if n := len(led.Records()); n != 1 {
		t.Fatalf("carrier or nil span recorded a touch (%d records)", n)
	}
	u := unattributed(t, led)
	if len(u) != 1 || u[0]["kind"] != ledger.MDMATx.String() || u[0]["events"] != 2.0 || u[0]["bytes"] != 60.0 {
		t.Fatalf("unattributed = %v, want 2 mdma-tx events of 60 bytes", u)
	}
}

// ledgerRun performs one seeded single-copy transfer and returns the
// ledger's serialized state.
func ledgerRun(t *testing.T, seed int64) []byte {
	t.Helper()
	tb := core.NewTestbed(seed)
	led := tb.EnableLedger()
	a := tb.AddHost(core.HostConfig{Name: "A", Addr: wire.Addr(0x0a000001),
		Mode: socket.ModeSingleCopy, CABNode: 1})
	b := tb.AddHost(core.HostConfig{Name: "B", Addr: wire.Addr(0x0a000002),
		Mode: socket.ModeSingleCopy, CABNode: 2})
	tb.RouteCAB(a, b)
	ttcp.Run(tb, a, b, ttcp.Params{Total: 512 * units.KB, RWSize: 64 * units.KB})
	return led.JSON()
}

// TestLedgerDeterminism asserts the ledger is part of the deterministic
// surface: two runs with the same seed serialize byte-identically.
func TestLedgerDeterminism(t *testing.T) {
	one := ledgerRun(t, 42)
	two := ledgerRun(t, 42)
	if !bytes.Equal(one, two) {
		t.Fatalf("same seed produced different ledgers (%d vs %d bytes)", len(one), len(two))
	}
	if len(one) == 0 {
		t.Fatal("ledger serialized empty")
	}
}

// TestCopyRangeRecordsNoTouches pins the retransmit-search property the
// paper relies on (Section 4.2): locating a byte range in a mixed
// M_UIO/M_WCAB transmit queue shares references and never touches data —
// so it must leave no trace in the ledger.
func TestCopyRangeRecordsNoTouches(t *testing.T) {
	now := units.Time(0)
	led := ledger.New(func() units.Time { return now })
	_ = led.Hook("A") // instrumentation enabled, as in a live run

	sp := mem.NewAddrSpace("user", 1*units.MB, 8*units.KB)
	ub := sp.Alloc(300, 4)
	u := &mem.UIO{Buf: ub}
	// CopyRange never reads outboard data and the baseline reference keeps
	// the packet alive, so the WCAB needs no handle.
	w := &mbuf.WCAB{Valid: 200}
	w.Ref()
	chain := mbuf.Cat(
		mbuf.Cat(mbuf.NewData(make([]byte, 50)), mbuf.NewUIO(u, 0, 300, nil)),
		mbuf.NewWCAB(w, 0, 200, nil))
	chain.AttachSpan(seg(obs.Seg{Flow: 7, Off: 0, Len: 550, PayloadOff: 0}))

	before := led.JSON()
	for off := units.Size(0); off < 500; off += 37 {
		mbuf.FreeChain(mbuf.CopyRange(chain, off, 50))
	}
	if after := led.JSON(); !bytes.Equal(before, after) {
		t.Fatalf("CopyRange changed the ledger:\nbefore %s\nafter  %s", before, after)
	}
	if n := len(led.Records()); n != 0 {
		t.Fatalf("CopyRange recorded %d data touches, want 0", n)
	}
}

// TestAuditsBindNoName: the audits and Summary are queries. A host they
// are asked about but the ledger never met matches no record and is not
// added to the ledger's name table, so the next name bound gets the id it
// would have got without them.
func TestAuditsBindNoName(t *testing.T) {
	led := ledger.New(func() units.Time { return 0 })
	h := led.Hook("A")
	h.Touch(1, 0, 100, ledger.CPUCopy, "copy", 0, 0)
	first := h.Layer("first")

	cfg := ledger.AuditConfig{Flow: 1, Total: 100, SndHost: "A", RcvHost: "nowhere"}
	for _, c := range []taxonomy.Config{taxonomy.CAB, taxonomy.Unmodified} {
		if led.AssertCell(taxonomy.Derive(c), taxonomy.DeriveReceive(c), cfg) == nil {
			t.Fatalf("the %v audit passed with no receiver records", c)
		}
	}
	fs := led.Summary(1, 100, []string{"A", "ghost"})
	if len(fs.Hosts) != 2 || len(fs.Hosts[0].Kinds) != 1 || len(fs.Hosts[1].Kinds) != 0 {
		t.Fatalf("summary = %+v, want one kind on A and none on ghost", fs.Hosts)
	}
	if next := h.Layer("next"); next != first+1 {
		t.Fatalf("the name bound after the audits got id %d, want %d: the audits grew the table", next, first+1)
	}
}
