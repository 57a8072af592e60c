package mpm

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// naiveAll is the reference match stream of the builder's patterns.
func naiveAll(t testing.TB, b *Builder, data []byte) []matchRec {
	t.Helper()
	n, err := b.BuildNaive()
	if err != nil {
		t.Fatal(err)
	}
	return findAll(n, data)
}

// checkAgainstNaive asserts that a finds in text exactly what the naive
// matcher finds: scanned whole, scanned in two packets with the state
// carried across every cut in cuts, and streamed through the lanes as
// the second packet of a flow.
func checkAgainstNaive(t *testing.T, b *Builder, a *ACFull, text []byte, cuts []int) {
	t.Helper()
	want := naiveAll(t, b, text)
	var whole []matchRec
	final := a.Scan(text, a.Start(), AllSets, collect(&whole, AllSets))
	if !equalMatches(normalize(whole), want) {
		t.Fatalf("whole scan: %d matches, naive finds %d", len(whole), len(want))
	}
	for _, cut := range cuts {
		var head, tail []matchRec
		mid := a.Scan(text[:cut], a.Start(), AllSets, collect(&head, AllSets))
		if st := a.Scan(text[cut:], mid, AllSets, collect(&tail, AllSets)); st != final {
			t.Fatalf("cut %d: resumed scan ends in state %d, unsplit in %d", cut, st, final)
		}
		split := head
		for _, m := range tail {
			split = append(split, matchRec{m.set, m.id, cut + m.end})
		}
		if !equalMatches(normalize(split), want) {
			t.Fatalf("cut %d: %d matches across the split, naive finds %d", cut, len(split), len(want))
		}
		// The same tail through the lanes, next to other walks so the
		// wide kernels run.
		var laned []matchRec
		lanes := make([]Lane, LaneWidth)
		for i := range lanes {
			lanes[i] = Lane{Data: text, State: a.Start(), Active: AllSets, Emit: func([]PatternRef, int) {}}
		}
		lanes[LaneWidth/2] = Lane{Data: text[cut:], State: mid, Active: AllSets, Emit: collect(&laned, AllSets)}
		a.ScanLanes(lanes)
		for i, l := range lanes {
			if l.State != final {
				t.Fatalf("cut %d: lane %d ends in state %d, solo scan in %d", cut, i, l.State, final)
			}
		}
		if !equalMatches(laned, tail) {
			t.Fatalf("cut %d: lanes emit %d matches for the tail, solo scan %d", cut, len(laned), len(tail))
		}
	}
}

// TestACFullAlphabets runs the byte-class table against the naive
// matcher for pattern alphabets that leave one class, many classes, one
// spare byte and no spare byte, over payloads drawing on all 256 byte
// values — so bytes outside the alphabet (class 0) occur wherever the
// alphabet leaves any.
func TestACFullAlphabets(t *testing.T) {
	for _, tc := range []struct {
		name       string
		alphabet   int
		wantStride int
	}{
		{"one byte", 1, 2},
		{"snort-sized", 83, 84},
		{"one spare byte", 255, 256},
		{"every byte", 256, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.alphabet)))
			// The alphabet is a shuffled draw of byte values, so class
			// order and byte order differ from the identity.
			alphabet := rng.Perm(256)[:tc.alphabet]
			var pats []string
			// Every alphabet byte labels an edge.
			for lo := 0; lo < len(alphabet); lo += 8 {
				var p []byte
				for _, c := range alphabet[lo:min(lo+8, len(alphabet))] {
					p = append(p, byte(c))
				}
				pats = append(pats, string(p))
			}
			for i := 0; i < 120; i++ {
				p := make([]byte, 1+rng.Intn(9))
				for j := range p {
					p[j] = byte(alphabet[rng.Intn(len(alphabet))])
				}
				pats = append(pats, string(p))
			}
			b := NewBuilder()
			if err := b.AddSet(0, pats[:len(pats)/2]); err != nil {
				t.Fatal(err)
			}
			if err := b.AddSet(1, pats[len(pats)/2:]); err != nil {
				t.Fatal(err)
			}
			a, err := b.BuildFull()
			if err != nil {
				t.Fatal(err)
			}
			if a.stride != tc.wantStride {
				t.Fatalf("row stride %d, want %d", a.stride, tc.wantStride)
			}
			for trial := 0; trial < 8; trial++ {
				text := make([]byte, 1+rng.Intn(3000))
				rng.Read(text)
				injectInto(rng, text, pats, 12)
				checkAgainstNaive(t, b, a, text, []int{0, len(text) / 3, len(text) - 1})
			}
		})
	}
}

// widthFiller is the one pattern the width-boundary sets differ in: it
// starts with a byte no base pattern contains, so a prefix of length n
// adds exactly n states.
var widthFiller = func() string {
	rng := rand.New(rand.NewSource(41))
	p := []byte{'#'}
	for len(p) < 4096 {
		p = append(p, byte('a'+rng.Intn(26)))
	}
	return string(p)
}()

// TestACFullWidthBoundary builds the same patterns into automata of
// 65 535, 65 536 and 65 537 states, so that the first two take uint16
// entries (the second using the last id a uint16 holds) and the third
// uint32, and checks each against the naive matcher with packet splits;
// below the boundary the patterns are also laid out at both widths, which
// must agree entry for entry and so hand flows the same states.
func TestACFullWidthBoundary(t *testing.T) {
	const low = 65535
	rng := rand.New(rand.NewSource(47))
	// One base set, sized so that a filler prefix reaches every target.
	b0 := NewBuilder()
	var base []string
	prefixes := map[string]bool{}
	states := 1 // the root, then one per distinct prefix
	for states < low-len(widthFiller)/2 {
		p := randomPatterns(rng, 1, 6, 14, 26)[0]
		if err := b0.Add(len(base)%3, len(base)/3, p); err != nil {
			t.Fatal(err)
		}
		base = append(base, p)
		for n := 1; n <= len(p); n++ {
			if !prefixes[p[:n]] {
				prefixes[p[:n]] = true
				states++
			}
		}
	}
	text := randomText(rng, 24000, 26)
	injectInto(rng, text, base, 200)
	var wantBase []matchRec
	for _, target := range []int{low, low + 1, low + 2} {
		filler := widthFiller[:target-states]
		b := NewBuilder()
		b.patterns = append(b.patterns, b0.patterns...)
		if err := b.Add(3, 0, filler); err != nil {
			t.Fatal(err)
		}
		a, err := b.BuildFull()
		if err != nil {
			t.Fatal(err)
		}
		if a.NumStates() != target {
			t.Fatalf("built %d states, want %d", a.NumStates(), target)
		}
		if narrow := a.next16 != nil; narrow != (target <= maxNarrowStates) || narrow == (a.next32 != nil) {
			t.Fatalf("%d states: next16 set %v, next32 set %v", target, a.next16 != nil, a.next32 != nil)
		}
		// The filler sits whole in the text: its walk visits the deepest
		// states, the highest ids included, and a cut inside it resumes
		// from one of them.
		at := 9000
		copy(text[at:], filler)
		checkAgainstNaive(t, b, a, text, []int{at + len(filler)/2, at + len(filler) - 1, 17})

		var gotBase []matchRec
		a.Scan(text, a.Start(), AllSets&^SetBit(3), collect(&gotBase, AllSets&^SetBit(3)))
		if wantBase == nil {
			wantBase = gotBase
		} else if !equalMatches(gotBase, wantBase) {
			t.Fatalf("%d states: base-pattern matches differ from the %d-state automaton's", target, low)
		}

		if target > maxNarrowStates {
			continue
		}
		tr, err := b.buildTrie()
		if err != nil {
			t.Fatal(err)
		}
		wide := compileFull(tr, len(b.patterns), true)
		if wide.next16 != nil || len(wide.next32) != len(a.next16) {
			t.Fatalf("wide layout has %d uint32 entries, narrow %d uint16", len(wide.next32), len(a.next16))
		}
		for i, e := range a.next16 {
			if uint32(e) != wide.next32[i] {
				t.Fatalf("entry %d: %d narrow, %d wide", i, e, wide.next32[i])
			}
		}
		sn, sw := a.Start(), wide.Start()
		for i := range text {
			sn = a.Scan(text[i:i+1], sn, 0, nil)
			sw = wide.Scan(text[i:i+1], sw, 0, nil)
			if sn != sw {
				t.Fatalf("byte %d: state %d narrow, %d wide", i, sn, sw)
			}
		}
	}
}

// TestACFullMemoryBytes pins MemoryBytes to the sizes of the slices the
// automaton holds, at both entry widths.
func TestACFullMemoryBytes(t *testing.T) {
	if unsafe.Sizeof(PatternRef{}) != patternRefBytes {
		t.Fatalf("PatternRef is %d bytes, patternRefBytes says %d", unsafe.Sizeof(PatternRef{}), patternRefBytes)
	}
	b := NewBuilder()
	pats := []string{"he", "she", "his", "hers", "h"}
	if err := b.AddSet(0, pats); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSet(1, pats[:2]); err != nil {
		t.Fatal(err)
	}
	tr, err := b.buildTrie()
	if err != nil {
		t.Fatal(err)
	}
	// Ten states (the distinct prefixes and the root) over {e h i r s}
	// plus class 0. A state is accepting when a pattern is a suffix of
	// its prefix, and holds one ref per such pattern registration.
	const states, stride = 10, 6
	prefixes := map[string]bool{}
	for _, p := range pats {
		for n := 1; n <= len(p); n++ {
			prefixes[p[:n]] = true
		}
	}
	var accepting, refs int64
	for prefix := range prefixes {
		n := refs
		for _, bp := range b.patterns {
			if strings.HasSuffix(prefix, bp.pat) {
				refs++
			}
		}
		if refs > n {
			accepting++
		}
	}
	for _, tc := range []struct {
		wide  bool
		width int64
	}{{false, 2}, {true, 4}} {
		a := compileFull(tr, len(b.patterns), tc.wide)
		if a.NumStates() != states || a.stride != stride {
			t.Fatalf("%d states, stride %d; want %d, %d", a.NumStates(), a.stride, states, stride)
		}
		want := 256 + states*stride*tc.width + accepting*8 + (accepting+1)*4 + refs*patternRefBytes
		if got := a.MemoryBytes(); got != want {
			t.Errorf("wide=%v: MemoryBytes %d, slices hold %d", tc.wide, got, want)
		}
	}
}
