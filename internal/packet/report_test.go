package packet

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestReportRoundTrip(t *testing.T) {
	var r Report
	r.PacketID = 0xDEADBEEF
	r.AddMatch(1, 10, 100)
	r.AddMatch(1, 11, 120)
	r.AddMatch(2, 10, 100)
	r.AddMatch(2, 500, 1)

	enc := r.AppendEncoded(nil)
	if len(enc) != r.EncodedLen() {
		t.Fatalf("EncodedLen = %d, actual %d", r.EncodedLen(), len(enc))
	}
	var got Report
	n, err := DecodeReport(enc, &got)
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if n != len(enc) {
		t.Errorf("consumed %d of %d bytes", n, len(enc))
	}
	if !reflect.DeepEqual(&r, &got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestReportTupleRoundTrip(t *testing.T) {
	var r Report
	r.Flags = FlagHasTuple | FlagFinal
	r.Tuple = FiveTuple{Src: IP4{1, 2, 3, 4}, Dst: IP4{5, 6, 7, 8}, SrcPort: 1000, DstPort: 80, Protocol: IPProtoTCP}
	r.AddMatch(3, 1, 5)
	enc := r.AppendEncoded(nil)
	var got Report
	if _, err := DecodeReport(enc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tuple != r.Tuple || got.Flags != r.Flags {
		t.Errorf("got tuple %v flags %x", got.Tuple, got.Flags)
	}
}

func TestReportRangeCoalescing(t *testing.T) {
	// A pattern like "aaaa" matching inside "aaaaaaaa" fires at 5
	// sequential end positions; the report must coalesce them into one
	// 6-byte range entry (Section 6.5).
	var r Report
	for pos := uint32(4); pos <= 8; pos++ {
		r.AddMatch(1, 7, pos)
	}
	sec := r.SectionFor(1)
	if sec == nil || len(sec.Entries) != 1 {
		t.Fatalf("entries = %+v, want one coalesced range", r.Sections)
	}
	e := sec.Entries[0]
	if e.Pattern != 7 || e.Pos != 4 || e.Count != 5 {
		t.Errorf("entry = %+v, want {7 4 5}", e)
	}
	if e.EncodedLen() != 6 {
		t.Errorf("range EncodedLen = %d, want 6", e.EncodedLen())
	}
	if r.NumMatches() != 5 {
		t.Errorf("NumMatches = %d, want 5", r.NumMatches())
	}
}

func TestReportNoCoalesceAcrossGaps(t *testing.T) {
	var r Report
	r.AddMatch(1, 7, 4)
	r.AddMatch(1, 7, 6) // gap: not sequential
	r.AddMatch(1, 8, 7) // different pattern
	sec := r.SectionFor(1)
	if len(sec.Entries) != 3 {
		t.Fatalf("entries = %+v, want 3 distinct", sec.Entries)
	}
	for _, e := range sec.Entries {
		if e.Count != 1 {
			t.Errorf("entry %+v coalesced unexpectedly", e)
		}
	}
}

func TestReportSingleMatchIsFourBytes(t *testing.T) {
	// Headline claim of Section 6.5: a single match costs 4 bytes (plus
	// fixed per-packet and per-section framing).
	var one, two Report
	one.AddMatch(1, 1, 1)
	two.AddMatch(1, 1, 1)
	two.AddMatch(1, 2, 9)
	if d := two.EncodedLen() - one.EncodedLen(); d != 4 {
		t.Errorf("marginal single-match cost = %d bytes, want 4", d)
	}
}

func TestReportEmpty(t *testing.T) {
	var r Report
	if !r.Empty() {
		t.Error("fresh report not Empty")
	}
	r.AddMatch(1, 1, 1)
	if r.Empty() {
		t.Error("report with a match is Empty")
	}
	enc := r.AppendEncoded(nil)
	r.Reset()
	if !r.Empty() || len(r.Sections) != 0 {
		t.Error("Reset did not clear report")
	}
	var got Report
	if _, err := DecodeReport(enc, &got); err != nil {
		t.Fatal(err)
	}
}

// A reused report keeps the section and entry storage its first cycle
// grew: Reset plus the same AddMatch sequence must not allocate, and a
// slot reused for a different middlebox must not leak old entries.
func TestReportResetReusesStorage(t *testing.T) {
	var r Report
	fill := func() {
		r.Reset()
		for i := 0; i < 40; i++ {
			r.AddMatch(uint8(1+i%3), uint16(i), uint32(7*i))
		}
	}
	fill()
	want := r.AppendEncoded(nil)
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Errorf("Reset + AddMatch on a warmed report allocates %.1f times per cycle, want 0", allocs)
	}
	if got := r.AppendEncoded(nil); !bytes.Equal(got, want) {
		t.Error("reused report encodes differently from the first cycle")
	}
	r.Reset()
	r.AddMatch(9, 5, 1)
	if len(r.Sections) != 1 || r.Sections[0].Mbox != 9 || len(r.Sections[0].Entries) != 1 {
		t.Errorf("reused slot carries stale state: %+v", r.Sections)
	}
}

func TestDecodeReportMalformed(t *testing.T) {
	var r Report
	r.AddMatch(1, 1, 1)
	r.AddMatch(2, 2, 2)
	enc := r.AppendEncoded(nil)

	var got Report
	// Every strict prefix must fail cleanly.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeReport(enc[:n], &got); err == nil {
			t.Errorf("DecodeReport(enc[:%d]) succeeded on truncated input", n)
		}
	}
	// Corrupt magic.
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := DecodeReport(bad, &got); err == nil {
		t.Error("DecodeReport accepted bad magic")
	}
	// Corrupt version.
	bad = append([]byte(nil), enc...)
	bad[2] = 0xFF
	if _, err := DecodeReport(bad, &got); err == nil {
		t.Error("DecodeReport accepted bad version")
	}
}

func TestReportRoundTripProperty(t *testing.T) {
	// Random reports built through AddMatch must round-trip exactly.
	rng := rand.New(rand.NewSource(42))
	f := func(nMatches uint8, packetID uint32) bool {
		var r Report
		r.PacketID = packetID
		pos := uint32(0)
		for i := 0; i < int(nMatches); i++ {
			mbox := uint8(rng.Intn(4))
			pat := uint16(rng.Intn(100))
			pos += uint32(rng.Intn(5)) // sometimes sequential, sometimes gapped
			r.AddMatch(mbox, pat, pos)
		}
		enc := r.AppendEncoded(nil)
		if len(enc) != r.EncodedLen() {
			return false
		}
		var got Report
		n, err := DecodeReport(enc, &got)
		if err != nil || n != len(enc) {
			return false
		}
		return reflect.DeepEqual(&r, &got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
