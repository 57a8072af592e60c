package mpm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
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

// buildHot lays b's patterns out with at most hot states hot.
func buildHot(t testing.TB, b *Builder, hot int) *ACFull {
	t.Helper()
	tr, err := b.buildTrie()
	if err != nil {
		t.Fatal(err)
	}
	return compileFull(tr, len(b.patterns), hot)
}

// bfsIDs maps a's state ids to the breadth-first ids of the trie it was
// laid out from, which do not depend on the hot count.
func bfsIDs(t testing.TB, b *Builder, a *ACFull) []int32 {
	t.Helper()
	tr, err := b.buildTrie()
	if err != nil {
		t.Fatal(err)
	}
	_, newToOld, _ := tr.renumber(a.hot)
	for s := a.hot; s < int32(tr.numStates()); s++ {
		newToOld = append(newToOld, s) // the cold states keep their ids
	}
	return newToOld
}

// TestACFullEveryHotCount lays the paper's example and a random set out
// at every hot count from one state to all of them — so the walks cross
// between hot and cold states at every depth, resume from cold states
// and reach cold accepting states — and requires of each layout what
// the naive matcher finds, for every set mask, and the states and
// match-table entries of the all-hot layout, state for state.
func TestACFullEveryHotCount(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	random := NewBuilder()
	for set := 0; set < 3; set++ {
		if err := random.AddSet(set, randomPatterns(rng, 12, 1, 6, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		b    *Builder
	}{{"paper", paperBuilder(t)}, {"random", random}} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.b
			all := buildHot(t, b, 1<<30)
			n := all.NumStates()
			if int(all.hot) != n || len(all.cold) != 0 || len(all.next) != n*all.stride {
				t.Fatalf("all-hot layout: %d of %d states hot, %d cold, %d entries", all.hot, n, len(all.cold), len(all.next))
			}
			allBFS := bfsIDs(t, b, all)
			text := randomText(rng, 3000, 8)
			copy(text, "ABDBCCDEABCDE")
			for hot := 1; hot <= n; hot++ {
				a := buildHot(t, b, hot)
				if int(a.hot) != hot || a.NumStates() != n || a.NumAccepting() != all.NumAccepting() {
					t.Fatalf("hot %d: laid out %d hot of %d states, %d accepting; want %d accepting",
						hot, a.hot, a.NumStates(), a.NumAccepting(), all.NumAccepting())
				}
				checkAgainstNaive(t, b, a, text, []int{1, 2, 5, len(text) / 2})
				bfs := bfsIDs(t, b, a)
				wantRefs := map[int32][]PatternRef{}
				for s, old := range allBFS {
					wantRefs[old] = all.MatchRefs(State(s))
				}
				for s, old := range bfs {
					if got := a.MatchRefs(State(s)); !slices.Equal(got, wantRefs[old]) {
						t.Fatalf("hot %d: state %d's refs %v, all-hot layout %v", hot, s, got, wantRefs[old])
					}
				}
				for _, active := range []uint64{SetBit(0), SetBit(1) | SetBit(2), 0} {
					var got, want []matchRec
					sa, sb := a.Start(), all.Start()
					for i := range text {
						sa = a.Scan(text[i:i+1], sa, active, collect(&got, active))
						sb = all.Scan(text[i:i+1], sb, active, collect(&want, active))
						if bfs[sa] != allBFS[sb] {
							t.Fatalf("hot %d, byte %d: state %d (breadth-first %d), all-hot layout %d (%d)", hot, i, sa, bfs[sa], sb, allBFS[sb])
						}
					}
					if !equalMatches(got, want) {
						t.Fatalf("hot %d, sets %#x: %d matches, all-hot layout %d", hot, active, len(got), len(want))
					}
				}
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
// 65 535, 65 536 and 65 537 states: the last state count whose ids a
// uint16 entry held, and one past it, where the table's entries used
// to double to uint32. Now the entries are 16-bit at every count and
// each of the three keeps its first 32 768 states hot (maxEscapes), the
// filler's deep states cold. Each is checked against the naive matcher
// with packet splits, two of them in cold states, and is also laid out
// with a 4 096-state hot front, which must hand every byte of the text
// the same state.
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
		if a.hot != maxEscapes {
			t.Fatalf("%d states: %d hot, want %d", target, a.hot, maxEscapes)
		}
		// The filler sits whole in the text: its walk visits the deepest
		// states, the highest ids included, and a cut inside it resumes
		// from one of them.
		at := 9000
		copy(text[at:], filler)
		cuts := []int{at + len(filler)/2, at + len(filler) - 1, 17}
		for _, cut := range cuts[:2] {
			if mid := a.Scan(text[:cut], a.Start(), 0, nil); mid < a.hot {
				t.Fatalf("%d states: the cut at %d leaves the flow in hot state %d", target, cut, mid)
			}
		}
		checkAgainstNaive(t, b, a, text, cuts)

		var gotBase []matchRec
		a.Scan(text, a.Start(), AllSets&^SetBit(3), collect(&gotBase, AllSets&^SetBit(3)))
		if wantBase == nil {
			wantBase = gotBase
		} else if !equalMatches(gotBase, wantBase) {
			t.Fatalf("%d states: base-pattern matches differ from the %d-state automaton's", target, low)
		}

		front := buildHot(t, b, 4096)
		bfs, frontBFS := bfsIDs(t, b, a), bfsIDs(t, b, front)
		sa, sf := a.Start(), front.Start()
		for i := range text {
			sa = a.Scan(text[i:i+1], sa, 0, nil)
			sf = front.Scan(text[i:i+1], sf, 0, nil)
			if bfs[sa] != frontBFS[sf] {
				t.Fatalf("%d states, byte %d: breadth-first state %d, %d with 4 096 hot", target, i, bfs[sa], frontBFS[sf])
			}
		}
	}
}

// TestACFullMemoryBytes pins MemoryBytes to the sizes of the slices the
// automaton holds, all hot and with cold states.
func TestACFullMemoryBytes(t *testing.T) {
	if unsafe.Sizeof(PatternRef{}) != patternRefBytes {
		t.Fatalf("PatternRef is %d bytes, patternRefBytes says %d", unsafe.Sizeof(PatternRef{}), patternRefBytes)
	}
	if unsafe.Sizeof(node{}) != coldStateBytes {
		t.Fatalf("node is %d bytes, coldStateBytes says %d", unsafe.Sizeof(node{}), coldStateBytes)
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
	var refs int64
	for prefix := range prefixes {
		for _, bp := range b.patterns {
			if strings.HasSuffix(prefix, bp.pat) {
				refs++
			}
		}
	}
	for hot := 1; hot <= states; hot++ {
		a := compileFull(tr, len(b.patterns), hot)
		if a.NumStates() != states || a.stride != stride || int(a.hot) != hot {
			t.Fatalf("%d states, stride %d, %d hot; want %d, %d, %d", a.NumStates(), a.stride, a.hot, states, stride, hot)
		}
		rows, cold := int64(hot), int64(states-hot)
		if cold > 0 {
			rows++ // the escape row
		}
		var accepting int64 // hot ones: the match table's
		for s := range int32(hot) {
			if tr.accepting(s) {
				accepting++
			}
		}
		want := 256 + rows*stride*2 + accepting*8 + (accepting+1)*4 + refs*patternRefBytes
		if cold > 0 {
			want += (cold+1)*coldStateBytes + cold
		}
		if got := a.MemoryBytes(); got != want {
			t.Errorf("%d hot: MemoryBytes %d, slices hold %d", hot, got, want)
		}
	}
}

// TestHotStatesTakeTheSteps is the visit profile the hot/cold split
// rests on, over the benchmark's multi-tenant workload: its three
// literal sets merged (61 569 states of 256 classes, 31.5 MB as full
// rows) and its two chains' traffic, the campus mix with 8 % of the
// packets carrying planted rule strings, 200 to 1 400 B. The 8 192
// breadth-first states denseBudget keeps hot must take at least 99 % of
// the table steps. The Snort-like set of the other three workloads fits
// the budget whole.
func TestHotStatesTakeTheSteps(t *testing.T) {
	snortA, snortB := patterns.SnortLike(2000, 1).Strings(), patterns.SnortLike(2000, 2).Strings()
	clam := patterns.ClamAVLike(2000, 3).Strings()
	b := NewBuilder()
	for i, set := range [][]string{snortA, clam, snortB} {
		if err := b.AddSet(i, set); err != nil {
			t.Fatal(err)
		}
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumStates() != 61569 || a.hot != 8192 {
		t.Fatalf("multi-tenant: %d states, %d hot; want 61569, 8192", a.NumStates(), a.hot)
	}
	var steps, cold int
	for chain, inject := range [][]string{append(snortA, clam...), snortB} {
		g := traffic.NewGenerator(traffic.Config{
			Seed: int64(17 + chain), Mix: traffic.CampusMix, MatchFraction: 0.08, InjectPatterns: inject,
			MinPayload: 200, MaxPayload: 1400,
		})
		for _, p := range g.Corpus(1 << 20) {
			s := a.Start()
			for i := range p {
				if s = a.Scan(p[i:i+1], s, 0, nil); s >= a.hot {
					cold++
				}
			}
			steps += len(p)
		}
	}
	hotPct := 100 * float64(steps-cold) / float64(steps)
	t.Logf("multi-tenant: %.2f %% of %d steps land in the %d hot states", hotPct, steps, a.hot)
	if hotPct < 99 {
		t.Errorf("multi-tenant: the %d hot states take %.2f %% of %d steps, want at least 99 %%", a.hot, hotPct, steps)
	}

	snort := NewBuilder()
	if err := snort.AddSet(0, snortA); err != nil {
		t.Fatal(err)
	}
	if a, err = snort.BuildFull(); err != nil {
		t.Fatal(err)
	}
	if int(a.hot) != a.NumStates() || len(a.cold) != 0 {
		t.Errorf("snort-2000: %d of %d states hot, want all", a.hot, a.NumStates())
	}
}
