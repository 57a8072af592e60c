package mpm

import (
	"math/rand"
	"sort"
	"testing"
)

// matchRec is a normalized match record for comparing engines.
type matchRec struct {
	set uint8
	id  uint16
	end int
}

func collect(dst *[]matchRec, active uint64) EmitFunc {
	return func(refs []PatternRef, end int) {
		for _, r := range refs {
			if active&(1<<uint(r.Set)) != 0 {
				*dst = append(*dst, matchRec{r.Set, r.ID, end})
			}
		}
	}
}

func normalize(ms []matchRec) []matchRec {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].end != ms[j].end {
			return ms[i].end < ms[j].end
		}
		if ms[i].set != ms[j].set {
			return ms[i].set < ms[j].set
		}
		return ms[i].id < ms[j].id
	})
	return ms
}

func equalMatches(a, b []matchRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func scanAll(a Automaton, data []byte, active uint64) []matchRec {
	var ms []matchRec
	a.Scan(data, a.Start(), active, collect(&ms, active))
	return normalize(ms)
}

func findAll(m BufMatcher, data []byte) []matchRec {
	var ms []matchRec
	m.Find(data, collect(&ms, AllSets))
	return normalize(ms)
}

// paperBuilder returns the two pattern sets of the paper's running
// example (Figures 4 and 7).
func paperBuilder(t testing.TB) *Builder {
	t.Helper()
	b := NewBuilder()
	if err := b.AddSet(0, []string{"E", "BE", "BD", "BCD", "BCAA", "CDBCAB"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSet(1, []string{"EDAE", "BE", "CDBA", "CBD"}); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPaperExampleCombinedDFA(t *testing.T) {
	a, err := paperBuilder(t).BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	// Figure 7 shows the merged DFA. Unique accepting labels:
	// E, BE, BD, BCD, BCAA, CDBCAB, EDAE, CDBA, CBD plus states that
	// inherit accepting suffixes: CDBCAB's prefix path has no extra
	// accepts beyond those; but BCD ends with the label BCD whose
	// suffix CD is not a pattern. The distinct accepting states are the
	// 9 distinct pattern ends plus any interior state whose label ends
	// with a pattern: "CDB" has suffix... no pattern; "BC" none; "EDA"
	// none; "CDBC" none; "CDBCA" none; "CB" none. "CBD" ends with BD
	// (set 0) — same state accepts both CBD and BD. And "BCD" also
	// ends with... "CD"? not a pattern; "D"? no. So f = 9.
	if got := a.NumAccepting(); got != 9 {
		t.Errorf("NumAccepting = %d, want 9", got)
	}

	// Scanning "CBD" must report CBD (set 1, id 3) and the suffix BD
	// (set 0, id 2) at the same position — the suffix-inheritance rule.
	got := scanAll(a, []byte("CBD"), AllSets)
	want := []matchRec{{0, 2, 3}, {1, 3, 3}}
	if !equalMatches(got, want) {
		t.Errorf("scan(CBD) = %v, want %v", got, want)
	}

	// "BE" is registered by both middleboxes; both pairs must be
	// reported (shared internal ID, Section 4.1).
	got = scanAll(a, []byte("XBEX"), AllSets)
	want = []matchRec{{0, 0, 3}, {0, 1, 3}, {1, 1, 3}}
	// Note: "BE" ends with "E" which is also set 0's pattern 0.
	if !equalMatches(got, want) {
		t.Errorf("scan(XBEX) = %v, want %v", got, want)
	}

	// Figure 7's long pattern with interleaved matches.
	got = scanAll(a, []byte("CDBCAB"), AllSets)
	want = []matchRec{{0, 5, 6}}
	if !equalMatches(got, want) {
		t.Errorf("scan(CDBCAB) = %v, want %v", got, want)
	}
}

func TestPaperExampleBitmapFiltering(t *testing.T) {
	a, err := paperBuilder(t).BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	// With only set 1 active, set-0-only patterns must not be emitted
	// even though they are present in the automaton.
	var ms []matchRec
	a.Scan([]byte("BCD E CDBA"), a.Start(), SetBit(1), func(refs []PatternRef, end int) {
		for _, r := range refs {
			ms = append(ms, matchRec{r.Set, r.ID, end})
		}
	})
	// BCD and E belong only to set 0; the accepting states reached for
	// them have no set-1 bit, so emit must not fire there at all.
	// CDBA (set 1 id 2) ends at position 10.
	for _, m := range ms {
		if m.set == 0 && m.end != 10 {
			// set-0 refs may only surface at states shared with set 1
			// (the CDBA state is set-1 only, BD/BE shared states not
			// reached here).
			t.Errorf("set-0-only match leaked through bitmap filter: %v", m)
		}
	}
	found := false
	for _, m := range ms {
		if m == (matchRec{1, 2, 10}) {
			found = true
		}
	}
	if !found {
		t.Errorf("CDBA not reported with set-1 mask: %v", ms)
	}
}

func TestAcceptingStatesAreDense(t *testing.T) {
	b := paperBuilder(t)
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	// Every emit during any scan must present a state whose match refs
	// are non-empty, and the match table must be exactly f entries.
	if len(a.match.bitmaps) != a.NumAccepting() || len(a.match.off) != a.NumAccepting()+1 {
		t.Errorf("match table has %d bitmaps and %d offsets, f = %d", len(a.match.bitmaps), len(a.match.off), a.NumAccepting())
	}
	for s := 0; s < a.NumAccepting(); s++ {
		if len(a.MatchRefs(State(s))) == 0 {
			t.Errorf("accepting state %d has empty match entry", s)
		}
	}
	if a.MatchRefs(State(a.NumAccepting())) != nil {
		t.Error("non-accepting state returned match refs")
	}
}

func TestSuffixInheritance(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(0, 0, "DEF"); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 0, "ABCDEF"); err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func() (Automaton, error){
		"full": func() (Automaton, error) { return b.BuildFull() },
		"lean": func() (Automaton, error) { return b.BuildLean() },
	} {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		got := scanAll(a, []byte("ABCDEF"), AllSets)
		want := []matchRec{{0, 0, 6}, {1, 0, 6}}
		if !equalMatches(got, want) {
			t.Errorf("%s: scan(ABCDEF) = %v, want %v", name, got, want)
		}
	}
}

func TestOverlappingMatches(t *testing.T) {
	b := NewBuilder()
	if err := b.AddSet(0, []string{"aa"}); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(a, []byte("aaaa"), AllSets)
	want := []matchRec{{0, 0, 2}, {0, 0, 3}, {0, 0, 4}}
	if !equalMatches(got, want) {
		t.Errorf("scan(aaaa) = %v, want %v", got, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(0, 0, ""); err != ErrEmptyPattern {
		t.Errorf("empty pattern: err = %v", err)
	}
	if err := b.Add(MaxSets, 0, "x"); err != ErrTooManySets {
		t.Errorf("set out of range: err = %v", err)
	}
	if err := b.Add(0, MaxPatternsPerSet, "x"); err != ErrTooManyPats {
		t.Errorf("id out of range: err = %v", err)
	}
	if _, err := NewBuilder().BuildFull(); err != ErrNoPatterns {
		t.Errorf("no patterns full: err = %v", err)
	}
	if _, err := NewBuilder().BuildLean(); err != ErrNoPatterns {
		t.Errorf("no patterns lean: err = %v", err)
	}
	if _, err := NewBuilder().BuildWuManber(); err != ErrNoPatterns {
		t.Errorf("no patterns wm: err = %v", err)
	}
	wb := NewBuilder()
	if err := wb.Add(0, 0, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := wb.BuildWuManber(); err == nil {
		t.Error("wu-manber accepted sub-block pattern")
	}
}

func TestStreamingEqualsWholeBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	pats := randomPatterns(rng, 40, 2, 8, 3)
	if err := b.AddSet(0, pats); err != nil {
		t.Fatal(err)
	}
	for name, a := range buildBoth(t, b) {
		text := randomText(rng, 4096, 3)
		whole := scanAll(a, text, AllSets)

		// Fragment the text at random boundaries and scan statefully;
		// positions must be rebased by the fragment offset.
		var frag []matchRec
		state := a.Start()
		off := 0
		for off < len(text) {
			n := 1 + rng.Intn(97)
			if off+n > len(text) {
				n = len(text) - off
			}
			base := off
			state = a.Scan(text[off:off+n], state, AllSets, func(refs []PatternRef, end int) {
				for _, r := range refs {
					frag = append(frag, matchRec{r.Set, r.ID, base + end})
				}
			})
			off += n
		}
		if !equalMatches(whole, normalize(frag)) {
			t.Errorf("%s: fragmented scan differs from whole-buffer scan", name)
		}
	}
}

func buildBoth(t testing.TB, b *Builder) map[string]Automaton {
	t.Helper()
	full, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	lean, err := b.BuildLean()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Automaton{"full": full, "lean": lean}
}

// randomPatterns generates n patterns of length [minLen,maxLen] over an
// alphabet of `alpha` letters starting at 'a'. Small alphabets force
// heavy overlap and shared prefixes.
func randomPatterns(rng *rand.Rand, n, minLen, maxLen, alpha int) []string {
	pats := make([]string, n)
	for i := range pats {
		l := minLen + rng.Intn(maxLen-minLen+1)
		buf := make([]byte, l)
		for j := range buf {
			buf[j] = byte('a' + rng.Intn(alpha))
		}
		pats[i] = string(buf)
	}
	return pats
}

func randomText(rng *rand.Rand, n, alpha int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte('a' + rng.Intn(alpha))
	}
	return buf
}

func TestEnginesAgreeWithNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		nSets := 1 + rng.Intn(3)
		for s := 0; s < nSets; s++ {
			if err := b.AddSet(s, randomPatterns(rng, 1+rng.Intn(20), 2, 6, 3)); err != nil {
				t.Fatal(err)
			}
		}
		naive, err := b.BuildNaive()
		if err != nil {
			t.Fatal(err)
		}
		wm, err := b.BuildWuManber()
		if err != nil {
			t.Fatal(err)
		}
		text := randomText(rng, 512, 3)
		want := findAll(naive, text)
		if got := findAll(wm, text); !equalMatches(got, want) {
			t.Fatalf("trial %d: wu-manber disagrees with naive\n got %v\nwant %v", trial, got, want)
		}
		for name, a := range buildBoth(t, b) {
			if got := scanAll(a, text, AllSets); !equalMatches(got, want) {
				t.Fatalf("trial %d: %s disagrees with naive\n got %v\nwant %v", trial, name, got, want)
			}
		}
	}
}

// TestMergedEqualsSeparate is the paper's central correctness claim
// (Section 5.1): one automaton over the union of all sets, filtered by
// the per-set bitmap, produces exactly what per-set automata produce.
func TestMergedEqualsSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nSets := 2 + rng.Intn(3)
		sets := make([][]string, nSets)
		merged := NewBuilder()
		for s := range sets {
			sets[s] = randomPatterns(rng, 1+rng.Intn(15), 2, 7, 3)
			if err := merged.AddSet(s, sets[s]); err != nil {
				t.Fatal(err)
			}
		}
		mergedA, err := merged.BuildFull()
		if err != nil {
			t.Fatal(err)
		}
		text := randomText(rng, 1024, 3)
		for s := range sets {
			solo := NewBuilder()
			// Register under the same set index so records compare
			// directly.
			if err := solo.AddSet(s, sets[s]); err != nil {
				t.Fatal(err)
			}
			soloA, err := solo.BuildFull()
			if err != nil {
				t.Fatal(err)
			}
			want := scanAll(soloA, text, AllSets)
			got := scanAll(mergedA, text, SetBit(s))
			if !equalMatches(got, want) {
				t.Fatalf("trial %d set %d: merged+bitmap differs from solo\n got %v\nwant %v",
					trial, s, got, want)
			}
		}
	}
}

func TestDuplicatePatternSharedState(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(0, 5, "attack"); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(1, 9, "attack"); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumAccepting() != 1 {
		t.Errorf("NumAccepting = %d, want 1 (shared state)", a.NumAccepting())
	}
	got := scanAll(a, []byte("an attack!"), AllSets)
	want := []matchRec{{0, 5, 9}, {1, 9, 9}}
	if !equalMatches(got, want) {
		t.Errorf("scan = %v, want %v", got, want)
	}
}

// TestCompactMemorySmallerThanFull pins what BuildLean's automaton
// costs: rows within leanBudget, and otherwise exactly the escape row,
// 13 bytes per cold state and the match table, a quarter of the full
// layout's size at most.
func TestCompactMemorySmallerThanFull(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder()
	// A binary alphabet: over a narrow one the full table's rows are
	// short too (one entry per byte class).
	if err := b.AddSet(0, randomPatterns(rng, 500, 8, 24, 256)); err != nil {
		t.Fatal(err)
	}
	full, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	lean, err := b.BuildLean()
	if err != nil {
		t.Fatal(err)
	}
	if full.NumStates() != lean.NumStates() {
		t.Errorf("state counts differ: full %d, lean %d", full.NumStates(), lean.NumStates())
	}
	h, n, rowBytes := int64(lean.hot), int64(lean.numStates), int64(2*lean.stride)
	if h*rowBytes > leanBudget || h >= n {
		t.Fatalf("lean layout: %d hot states of %d, %d B of rows (budget %d B)", h, n, h*rowBytes, leanBudget)
	}
	// The class map, the hot rows, the escape row, each cold state's
	// record and label (plus the record that closes the last one), and
	// the match table.
	want := 256 + (h+1)*rowBytes + (n-h)*(coldStateBytes+1) + coldStateBytes + lean.match.memoryBytes()
	if got := lean.MemoryBytes(); got != want {
		t.Errorf("lean MemoryBytes %d, want %d", got, want)
	}
	if lean.MemoryBytes()*4 > full.MemoryBytes() {
		t.Errorf("lean (%d B) not substantially smaller than full (%d B)",
			lean.MemoryBytes(), full.MemoryBytes())
	}
}

func TestMergedSmallerThanSum(t *testing.T) {
	// Table 2's space observation: the combined automaton is smaller
	// than the sum of the separate ones when sets share structure.
	rng := rand.New(rand.NewSource(6))
	// Force shared prefixes: both sets draw from the same prefix pool.
	prefixes := randomPatterns(rng, 50, 6, 6, 4)
	mkSet := func() []string {
		out := make([]string, 300)
		for i := range out {
			out[i] = prefixes[rng.Intn(len(prefixes))] + string(randomText(rng, 6, 4))
		}
		return out
	}
	s1, s2 := mkSet(), mkSet()
	b1, b2, bc := NewBuilder(), NewBuilder(), NewBuilder()
	if err := b1.AddSet(0, s1); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddSet(0, s2); err != nil {
		t.Fatal(err)
	}
	if err := bc.AddSet(0, s1); err != nil {
		t.Fatal(err)
	}
	if err := bc.AddSet(1, s2); err != nil {
		t.Fatal(err)
	}
	a1, err := b1.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := b2.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	ac, err := bc.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	if ac.MemoryBytes() >= a1.MemoryBytes()+a2.MemoryBytes() {
		t.Errorf("combined %d B not smaller than %d + %d B",
			ac.MemoryBytes(), a1.MemoryBytes(), a2.MemoryBytes())
	}
}

func TestWuManberWindowEdgeCases(t *testing.T) {
	b := NewBuilder()
	if err := b.AddSet(0, []string{"ab", "abcdef"}); err != nil {
		t.Fatal(err)
	}
	wm, err := b.BuildWuManber()
	if err != nil {
		t.Fatal(err)
	}
	// Text shorter than minLen: no matches, no panic.
	var ms []matchRec
	wm.Find([]byte("a"), collect(&ms, AllSets))
	if len(ms) != 0 {
		t.Errorf("matches on short text: %v", ms)
	}
	// Long pattern must still be found despite minLen=2 window.
	got := findAll(wm, []byte("xxabcdefxx"))
	want := []matchRec{{0, 0, 4}, {0, 1, 8}}
	if !equalMatches(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	// Match at the very end of the buffer.
	got = findAll(wm, []byte("zzzab"))
	want = []matchRec{{0, 0, 5}}
	if !equalMatches(got, want) {
		t.Errorf("end match: got %v, want %v", got, want)
	}
}

func TestScanPositionSemantics(t *testing.T) {
	b := NewBuilder()
	if err := b.Add(0, 0, "needle"); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("haystack needle haystack")
	got := scanAll(a, text, AllSets)
	if len(got) != 1 {
		t.Fatalf("matches = %v", got)
	}
	// end is 1-based count of consumed bytes; the pattern occupies
	// [end-len, end).
	start := got[0].end - len("needle")
	if string(text[start:got[0].end]) != "needle" {
		t.Errorf("position semantics wrong: end=%d", got[0].end)
	}
}
