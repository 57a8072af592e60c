package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

var testTuple = packet.FiveTuple{
	Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2},
	SrcPort: 1234, DstPort: 80, Protocol: packet.IPProtoTCP,
}

// twoBoxConfig builds the canonical two-middlebox instance: an IDS-like
// stateful box (set 0) and an AV-like stateless box (set 1), both on
// chain 1; chain 2 carries only set 1.
func twoBoxConfig() Config {
	return Config{
		Profiles: []Profile{
			{ID: 0, Name: "ids", Stateful: true, ReadOnly: true,
				Patterns: patterns.FromStrings("ids", []string{"attack-sig", "/etc/passwd", "evil"})},
			{ID: 1, Name: "av", Stateful: false,
				Patterns: patterns.FromStrings("av", []string{"malware-body", "evil"})},
		},
		Chains: map[uint16][]int{1: {0, 1}, 2: {1}},
	}
}

type rec struct {
	mbox uint8
	pat  uint16
	pos  uint16
	cnt  uint16
}

func flatten(r *packet.Report) []rec {
	if r == nil {
		return nil
	}
	var out []rec
	for _, s := range r.Sections {
		for _, e := range s.Entries {
			out = append(out, rec{s.Mbox, e.Pattern, e.Pos, e.Count})
		}
	}
	return out
}

func TestInspectBasicMatch(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("GET /etc/passwd HTTP/1.1"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, 1, 15, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestInspectNoMatchReturnsNil(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("perfectly clean payload"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("report = %v, want nil", flatten(rep))
	}
	s := e.Snapshot()
	if s.Packets != 1 || s.Reports != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInspectSharedPatternBothBoxes(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("an evil payload"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	// "evil" is pattern 2 of set 0 and pattern 1 of set 1 — both must
	// be reported from one scan.
	want := []rec{{0, 2, 7, 1}, {1, 1, 7, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestInspectChainMaskFiltering(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Chain 2 includes only set 1; set 0's exclusive patterns must not
	// appear even though they are in the merged automaton.
	rep, err := e.Inspect(2, testTuple, []byte("attack-sig and malware-body"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{1, 0, 27, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestInspectUnknownChain(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(99, testTuple, []byte("x")); !errors.Is(err, ErrUnknownChain) {
		t.Errorf("err = %v, want ErrUnknownChain", err)
	}
}

func TestStatefulCrossPacketMatch(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	// "attack-sig" split across two packets of the same flow: the
	// stateful IDS must see it; the stateless AV must not see anything.
	rep1, err := e.Inspect(1, testTuple, []byte("xxattack-"))
	if err != nil {
		t.Fatal(err)
	}
	if rep1 != nil {
		t.Fatalf("first fragment reported %v", flatten(rep1))
	}
	rep2, err := e.Inspect(1, testTuple, []byte("sigyy"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep2)
	// Position is offset+cnt: 9 bytes in packet 1 + 3 in packet 2 = 12.
	want := []rec{{0, 0, 12, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestStatelessCrossPacketFiltered(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{
			{ID: 0, Stateful: true, Patterns: patterns.FromStrings("s", []string{"spanning"})},
			{ID: 1, Stateful: false, Patterns: patterns.FromStrings("p", []string{"spanning", "inside"})},
		},
		Chains: map[uint16][]int{1: {0, 1}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("..span")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("ning inside too"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	// Stateful set 0 sees the spanning match at 6+4=10; stateless set 1
	// must NOT see "spanning" (it began in the previous packet) but
	// must see "inside" fully contained in packet 2 at cnt=11.
	want := []rec{{0, 0, 10, 1}, {1, 1, 11, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestStatelessSamePacketStillReportedAfterRestore(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{
			{ID: 0, Stateful: true, Patterns: patterns.FromStrings("s", []string{"zzzzzzzz"})},
			{ID: 1, Stateful: false, Patterns: patterns.FromStrings("p", []string{"whole"})},
		},
		Chains: map[uint16][]int{1: {0, 1}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("first packet")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("a whole match"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{1, 0, 7, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestFlowIsolation(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	other := testTuple
	other.SrcPort = 9999
	// Fragment split across two DIFFERENT flows must not match.
	if _, err := e.Inspect(1, testTuple, []byte("attack-")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, other, []byte("sig"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("cross-flow match leaked: %v", flatten(rep))
	}
	if e.ActiveFlows() != 2 {
		t.Errorf("ActiveFlows = %d, want 2", e.ActiveFlows())
	}
}

func TestEndFlowResetsState(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("attack-")); err != nil {
		t.Fatal(err)
	}
	e.EndFlow(testTuple)
	rep, err := e.Inspect(1, testTuple, []byte("sig"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("match survived EndFlow: %v", flatten(rep))
	}
	if e.ActiveFlows() != 1 {
		t.Errorf("ActiveFlows = %d, want 1", e.ActiveFlows())
	}
}

func TestStoppingConditionStateless(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{
			{ID: 0, StopAfter: 10, Patterns: patterns.FromStrings("hdr", []string{"deep-pattern", "early"})},
		},
		Chains: map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// "early" ends at 6 <= 10: reported. "deep-pattern" ends at 30: not.
	rep, err := e.Inspect(1, testTuple, []byte("xearly padding... deep-pattern"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, 1, 6, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
	// The scan itself must have stopped at the condition.
	if s := e.Snapshot(); s.BytesScanned != 10 {
		t.Errorf("BytesScanned = %d, want 10 (scan truncated at stop)", s.BytesScanned)
	}
}

func TestStoppingConditionStatefulAcrossPackets(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{
			{ID: 0, Stateful: true, StopAfter: 12, Patterns: patterns.FromStrings("hdr", []string{"token"})},
		},
		Chains: map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Packet 1: 8 bytes, no match. Packet 2: "token" would end at
	// offset 8+5=13 > 12 — filtered; and the scan is limited to
	// stop-offset = 4 bytes.
	if _, err := e.Inspect(1, testTuple, []byte("12345678")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("token"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("match beyond stateful stopping condition: %v", flatten(rep))
	}
	// Third packet: entirely beyond the stop; zero additional bytes
	// scanned.
	before := e.Snapshot().BytesScanned
	if _, err := e.Inspect(1, testTuple, []byte("more data")); err != nil {
		t.Fatal(err)
	}
	if after := e.Snapshot().BytesScanned; after != before {
		t.Errorf("scanned %d bytes beyond stopping condition", after-before)
	}
}

func TestStoppingConditionMostConservativeWins(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{
			{ID: 0, StopAfter: 8, Patterns: patterns.FromStrings("a", []string{"headonly"})},
			{ID: 1, StopAfter: 0, Patterns: patterns.FromStrings("b", []string{"deepdeep"})},
		},
		Chains: map[uint16][]int{1: {0, 1}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := append(bytes.Repeat([]byte("x"), 100), []byte("deepdeep")...)
	rep, err := e.Inspect(1, testTuple, payload)
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	// Set 1 is unlimited, so the whole packet is scanned and set 1's
	// deep match reported; set 0 gets nothing past byte 8.
	want := []rec{{1, 0, 108, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestOffsetDepthWindows(t *testing.T) {
	set := &patterns.Set{Name: "w", Patterns: []patterns.Pattern{
		{ID: 0, Content: "headmark", Offset: 0, Depth: 16}, // must end within first 16 bytes
		{ID: 1, Content: "deepmark", Offset: 10},           // must start at byte >= 10
		{ID: 2, Content: "anywhere"},
	}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(payload string, want []rec) {
		t.Helper()
		tpl := testTuple
		tpl.SrcPort++
		rep, err := e.Inspect(1, tpl, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if got := flatten(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("payload %q: report = %v, want %v", payload, got, want)
		}
	}
	// headmark at start: within its window. deepmark at byte 9:
	// violates its offset >= 10 and is filtered. anywhere always
	// reports.
	check("headmark deepmark anywhere",
		[]rec{{0, 0, 8, 1}, {0, 2, 26, 1}})
	// With two spaces deepmark starts at byte 10 and passes.
	check("headmark  deepmark anywhere",
		[]rec{{0, 0, 8, 1}, {0, 1, 18, 1}, {0, 2, 27, 1}})
	// headmark too deep (ends at 20 > 16): filtered.
	check("xxxxxxxxxxxxheadmark", nil)
	// deepmark starting exactly at byte 10: allowed.
	check("0123456789deepmark", []rec{{0, 1, 18, 1}})
	// deepmark starting at byte 9: filtered.
	check("012345678deepmark", nil)
}

func TestOffsetDepthWindowsStateful(t *testing.T) {
	set := &patterns.Set{Name: "w", Patterns: []patterns.Pattern{
		{ID: 0, Content: "marker", Offset: 0, Depth: 10}, // first 10 stream bytes only
	}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Stateful: true, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream position 0..5: inside the window even split over packets.
	if _, err := e.Inspect(1, testTuple, []byte("mar")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("ker"))
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rep); !reflect.DeepEqual(got, []rec{{0, 0, 6, 1}}) {
		t.Errorf("windowed stateful match = %v", got)
	}
	// Beyond stream byte 10: filtered even though each packet is small.
	tpl := testTuple
	tpl.SrcPort = 777
	if _, err := e.Inspect(1, tpl, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	rep, err = e.Inspect(1, tpl, []byte("marker"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("match beyond stream window reported: %v", flatten(rep))
	}
}

func TestNoCaseMatching(t *testing.T) {
	set := &patterns.Set{Name: "nc", Patterns: []patterns.Pattern{
		{ID: 0, Content: "CaseSensitive"},
		{ID: 1, Content: "select union", NoCase: true},
	}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := func(payload string, want []rec) {
		t.Helper()
		tpl := testTuple
		tpl.SrcPort++
		rep, err := e.Inspect(1, tpl, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		if got := flatten(rep); !reflect.DeepEqual(got, want) {
			t.Errorf("payload %q: report = %v, want %v", payload, got, want)
		}
	}
	// The nocase rule fires for any casing.
	check("x SELECT UNION y", []rec{{0, 1, 14, 1}})
	check("x SeLeCt UnIoN y", []rec{{0, 1, 14, 1}})
	check("x select union y", []rec{{0, 1, 14, 1}})
	// The case-sensitive rule only fires on exact bytes.
	check("CaseSensitive", []rec{{0, 0, 13, 1}})
	check("casesensitive", nil)
	check("CASESENSITIVE", nil)
}

func TestNoCaseStatefulAcrossPackets(t *testing.T) {
	set := &patterns.Set{Name: "nc", Patterns: []patterns.Pattern{
		{ID: 0, Content: "crosscase", NoCase: true},
	}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Stateful: true, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("..CrOsS")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("cAsE.."))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, 0, 11, 1}} // 7 bytes + 4 = stream position 11
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

// TestNoCaseNonASCII: nocase folds ASCII letters only, on the pattern
// as on the payload, so a byte outside ASCII — invalid UTF-8 or part of
// a multi-byte letter — must match exactly, whatever the case of the
// ASCII letters around it.
func TestNoCaseNonASCII(t *testing.T) {
	set := &patterns.Set{Name: "nc", Patterns: []patterns.Pattern{
		{ID: 0, Content: "\xffSMB", NoCase: true},
		{ID: 1, Content: "Āx", NoCase: true},
	}}
	e, err := NewEngine(Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		payload string
		want    []rec
	}{
		{"\xffSMB", []rec{{0, 0, 4, 1}}},
		{"\xffsmb", []rec{{0, 0, 4, 1}}},
		{"..\xffSmB", []rec{{0, 0, 6, 1}}},
		{"\xfeSMB", nil},
		{"SMB", nil},
		{"Āx", []rec{{0, 1, 3, 1}}},
		{"ĀX", []rec{{0, 1, 3, 1}}},
		{"āx", nil}, // not an ASCII letter: no folding
	} {
		tpl := testTuple
		tpl.SrcPort++
		rep, err := e.Inspect(1, tpl, []byte(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		if got := flatten(rep); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("payload %q: report = %v, want %v", tc.payload, got, tc.want)
		}
	}
}

func TestRegexAnchorConfirmation(t *testing.T) {
	set := patterns.FromStrings("rx", []string{"plainpattern"})
	set.Regexes = []patterns.Regex{{ID: 0, Expr: `regular\s*expression\s*\d+`}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both anchors present AND the full expression matches.
	rep, err := e.Inspect(1, testTuple, []byte("a regular expression 42 here"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, RegexReportBase + 0, 23, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
	s := e.Snapshot()
	if s.RegexConfirms != 1 || s.RegexHits != 1 {
		t.Errorf("regex stats = %+v", s)
	}
}

func TestRegexAnchorsPresentButExpressionFails(t *testing.T) {
	set := &patterns.Set{Name: "rx"}
	set.Regexes = []patterns.Regex{{ID: 0, Expr: `regular\s*expression\s*\d+`}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Anchors in the wrong order: the engine must be invoked (all
	// anchors present) but report nothing.
	rep, err := e.Inspect(1, testTuple, []byte("expression then regular but no digits"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("false regex report: %v", flatten(rep))
	}
	s := e.Snapshot()
	if s.RegexConfirms != 1 || s.RegexHits != 0 {
		t.Errorf("regex stats = %+v, want one confirm, zero hits", s)
	}
}

func TestRegexMissingAnchorSkipsEngine(t *testing.T) {
	set := &patterns.Set{Name: "rx"}
	set.Regexes = []patterns.Regex{{ID: 0, Expr: `regular\s*expression\s*\d+`}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("only the word regular appears")); err != nil {
		t.Fatal(err)
	}
	if s := e.Snapshot(); s.RegexConfirms != 0 {
		t.Errorf("full engine invoked with a missing anchor (confirms=%d)", s.RegexConfirms)
	}
}

func TestRegexAnchorPoorDirectEvaluation(t *testing.T) {
	set := &patterns.Set{Name: "rx"}
	set.Regexes = []patterns.Regex{{ID: 3, Expr: `[0-9]{16}`}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("pan=4111111111111111"))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, RegexReportBase + 3, 20, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

func TestRegexAnchorStateDoesNotLeakAcrossPackets(t *testing.T) {
	set := &patterns.Set{Name: "rx"}
	set.Regexes = []patterns.Regex{{ID: 0, Expr: `firstanchor.*secondanchor`}}
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One anchor per packet: per-packet regex handling must not
	// accumulate anchors across packets.
	if _, err := e.Inspect(1, testTuple, []byte("has firstanchor only")); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, []byte("has secondanchor only"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("anchors leaked across packets: %v", flatten(rep))
	}
	if s := e.Snapshot(); s.RegexConfirms != 0 {
		t.Errorf("confirms = %d, want 0", s.RegexConfirms)
	}
}

// TestGzipPayloadScannedRaw checks that the engine scans a gzip body as
// the bytes on the wire: a pattern present only in the inflated text is
// not reported, because nothing inflates it.
func TestGzipPayloadScannedRaw(t *testing.T) {
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write([]byte("compressed evil content")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("matched inside compressed bytes: %v", flatten(rep))
	}
}

func TestFlowTableEviction(t *testing.T) {
	cfg := twoBoxConfig()
	cfg.MaxFlows = 16
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tpl := testTuple
	for i := 0; i < 100; i++ {
		tpl.SrcPort = uint16(1000 + i)
		if _, err := e.Inspect(1, tpl, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.ActiveFlows(); got > 16 {
		t.Errorf("ActiveFlows = %d, exceeds MaxFlows", got)
	}
	if s := e.Snapshot(); s.FlowsEvicted == 0 {
		t.Error("no evictions recorded")
	}
}

func TestRangeCoalescingThroughEngine(t *testing.T) {
	cfg := Config{
		Profiles: []Profile{{ID: 0, Patterns: patterns.FromStrings("r", []string{"aaaa"})}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Inspect(1, testTuple, bytes.Repeat([]byte{'a'}, 10))
	if err != nil {
		t.Fatal(err)
	}
	got := flatten(rep)
	want := []rec{{0, 0, 4, 7}} // ends 4..10 coalesce into one range
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
}

// TestCompactKindEquivalence is the differential of the two automaton
// kinds: AutoCompact's lean layout gives every packet the report
// AutoFull's gives it, through Inspect and through InspectBatch runs.
// The stateful set is ClamAV-like 2 000 (~17 000 states over the 256
// byte values), so the lean layout has rows for 256 states and leaves
// the rest cold, and its flows carry the attack mix stitched from the
// set, which keeps the walks in cold states; each flow's stream is cut
// into packets at random, so the state handed from one packet to the
// next is often a cold one. A stateless case-insensitive set on the
// same chain runs the case-fold automaton of either kind.
func TestCompactKindEquivalence(t *testing.T) {
	clam := patterns.ClamAVLike(2000, 3)
	fold := patterns.SnortLike(300, 1)
	for i := range fold.Patterns {
		fold.Patterns[i].NoCase = true
	}
	mk := func(kind AutomatonKind) *Engine {
		e, err := NewEngine(Config{
			Kind: kind,
			Profiles: []Profile{
				{ID: 0, Name: "av", Stateful: true, Patterns: clam},
				{ID: 1, Name: "ids", Patterns: fold},
			},
			Chains: map[uint16][]int{1: {0, 1}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rng := rand.New(rand.NewSource(3))
	attack := traffic.NewGenerator(traffic.Config{Seed: 3, Mix: traffic.AttackMix, InjectPatterns: clam.Strings()})
	http := traffic.NewGenerator(traffic.Config{Seed: 4, Mix: traffic.HTTPMix, MatchFraction: 0.5, InjectPatterns: fold.Strings()})
	// Each flow's stream, cut at random; packets are dealt out in an
	// order that interleaves flows but keeps each flow's own order.
	const flows = 24
	var streams [flows][][]byte
	for f := range streams {
		var stream []byte
		for len(stream) < 12<<10 {
			stream = append(stream, attack.Payload()...)
			stream = append(stream, bytes.ToUpper(http.Payload())...)
		}
		for len(stream) > 0 {
			n := min(len(stream), 1+rng.Intn(700))
			streams[f] = append(streams[f], stream[:n])
			stream = stream[n:]
		}
	}
	var (
		items []BatchItem
		start []int // the stream offset of each item's first byte
		off   [flows]int
	)
	for left := flows; left > 0; {
		f := rng.Intn(flows)
		if len(streams[f]) == 0 {
			continue
		}
		p := streams[f][0]
		items, start = append(items, BatchItem{Tag: 1, Tuple: parallelFlowTuple(f), Payload: p}), append(start, off[f])
		off[f] += len(p)
		if streams[f] = streams[f][1:]; len(streams[f]) == 0 {
			left--
		}
	}
	inspect := func(e *Engine) [][]rec {
		out := make([][]rec, len(items))
		for i, it := range items {
			r, err := e.Inspect(it.Tag, it.Tuple, it.Payload)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = flatten(r)
		}
		return out
	}
	batch := func(e *Engine) [][]rec {
		out := make([][]rec, len(items))
		for lo := 0; lo < len(items); {
			run := slices.Clone(items[lo:min(len(items), lo+1+rng.Intn(80))])
			e.InspectBatch(run, 1)
			for i, it := range run {
				if it.Err != nil {
					t.Fatal(it.Err)
				}
				out[lo+i] = flatten(it.Report)
			}
			lo += len(run)
		}
		return out
	}
	full, lean := mk(AutoFull), mk(AutoCompact)
	want := inspect(full)
	matched, straddled := [2]int{}, 0
	for i := range items {
		for _, r := range want[i] {
			matched[r.mbox]++
			if r.mbox == 0 && int(r.pos)-len(clam.Patterns[r.pat].Content) < start[i] {
				straddled++ // begun in an earlier packet: found from the state it handed over
			}
		}
	}
	if matched[0] < 1000 || matched[1] < 50 || straddled < 100 {
		t.Fatalf("%d packets: %v matches per set, %d across packets: the corpus exercises nothing", len(items), matched, straddled)
	}
	for _, tc := range []struct {
		name string
		got  [][]rec
	}{
		{"lean Inspect", inspect(lean)},
		{"full InspectBatch", batch(mk(AutoFull))},
		{"lean InspectBatch", batch(mk(AutoCompact))},
	} {
		for i := range items {
			if !reflect.DeepEqual(tc.got[i], want[i]) {
				t.Fatalf("%s, packet %d (%d bytes): %v, full Inspect gives %v", tc.name, i, len(items[i].Payload), tc.got[i], want[i])
			}
		}
	}
	// An all-hot layout costs 2 B per byte class per state, 512 B over
	// this set's 256 classes: the lean one's cost shows it is mostly cold.
	if a := lean.auto; a.MemoryBytes() >= 64*int64(a.NumStates()) {
		t.Errorf("lean automaton: %d B for %d states, not a mostly cold layout", a.MemoryBytes(), a.NumStates())
	}
	if lean.MemoryBytes()*4 > full.MemoryBytes() {
		t.Errorf("lean engine (%d B) more than a quarter of the full one (%d B)", lean.MemoryBytes(), full.MemoryBytes())
	}
}

func TestConfigValidation(t *testing.T) {
	base := twoBoxConfig()
	for name, mut := range map[string]func(*Config){
		"no profiles":    func(c *Config) { c.Profiles = nil },
		"dup id":         func(c *Config) { c.Profiles[1].ID = 0 },
		"id range":       func(c *Config) { c.Profiles[0].ID = 64 },
		"no patterns":    func(c *Config) { c.Profiles[0].Patterns = &patterns.Set{} },
		"neg stop":       func(c *Config) { c.Profiles[0].StopAfter = -1 },
		"chain unknown":  func(c *Config) { c.Chains[7] = []int{42} },
		"pattern id big": func(c *Config) { c.Profiles[0].Patterns.Patterns[0].ID = RegexReportBase },
		"bad kind":       func(c *Config) { c.Kind = AutomatonKind(9) },
		"bad kind 2":     func(c *Config) { c.Kind = AutomatonKind(2) },
		"bad kind 3":     func(c *Config) { c.Kind = AutomatonKind(3) },
	} {
		cfg := twoBoxConfig()
		_ = base
		mut(&cfg)
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("%s: NewEngine succeeded, want error", name)
		}
	}
	// Bad regex must be rejected at init.
	set := &patterns.Set{Name: "rx", Regexes: []patterns.Regex{{ID: 0, Expr: "("}}}
	if _, err := NewEngine(Config{Profiles: []Profile{{ID: 0, Patterns: set}}}); err == nil {
		t.Error("bad regex accepted")
	}
}

func TestEngineAccessors(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if e.NumPatterns() != 5 {
		t.Errorf("NumPatterns = %d, want 5", e.NumPatterns())
	}
	if e.NumStates() == 0 || e.MemoryBytes() == 0 {
		t.Error("zero states or memory")
	}
	tags := e.Chains()
	if len(tags) != 2 {
		t.Errorf("Chains = %v", tags)
	}
}

func TestChainStats(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("evil here")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(1, testTuple, []byte("clean")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Inspect(2, testTuple, []byte("evil again")); err != nil {
		t.Fatal(err)
	}
	stats := e.ChainStats()
	if len(stats) != 2 || stats[0].Tag != 1 || stats[1].Tag != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Packets != 2 || stats[0].Matches != 2 { // evil x2 sets on chain 1
		t.Errorf("chain 1 = %+v", stats[0])
	}
	if stats[1].Packets != 1 || stats[1].Matches != 1 { // only set 1 on chain 2
		t.Errorf("chain 2 = %+v", stats[1])
	}
	if stats[0].Bytes != uint64(len("evil here")+len("clean")) {
		t.Errorf("chain 1 bytes = %d", stats[0].Bytes)
	}
}

func TestFlowStatsTelemetry(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("evil evil evil")
	for i := 0; i < 3; i++ {
		if _, err := e.Inspect(1, testTuple, payload); err != nil {
			t.Fatal(err)
		}
	}
	stats := e.FlowStats()
	if len(stats) != 1 {
		t.Fatalf("FlowStats = %+v", stats)
	}
	if stats[0].Bytes != uint64(3*len(payload)) {
		t.Errorf("Bytes = %d", stats[0].Bytes)
	}
	if stats[0].Matches != 18 { // 3 occurrences x 2 sets x 3 packets
		t.Errorf("Matches = %d, want 18", stats[0].Matches)
	}
}
