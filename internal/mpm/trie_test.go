package mpm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dpiservice/internal/patterns"
)

// TestCompiledAutomatonGolden pins the compiled automata of the pattern
// sets the deployed benchmark compiles: the digest (fullDigest) of
// BuildFull's layout and of BuildLean's, the one MCA² dedicated
// instances run. The full digests were taken from the map-per-state
// builder the flat-array one replaced, and those of the all-hot
// automata from before the cold states; any change in state numbering,
// row contents or ref order moves them.
func TestCompiledAutomatonGolden(t *testing.T) {
	snort1 := patterns.SnortLike(2000, 1).Strings()
	for _, tc := range []struct {
		name       string
		sets       [][]string
		states     int
		full, lean string
	}{
		{"snort-2000", [][]string{snort1}, 23206,
			"3ac36b91d1c3a57d0717ae9b3731dcc19943d590530d6720e1a13dff6366b80b",
			"0d30847e7cdd12c2f0afde7a70a1c57d08946bda25fbfffa328102559973e4fc"},
		// The three literal sets of the benchmark's multi-tenant workload.
		{"multi-tenant", [][]string{snort1, patterns.ClamAVLike(2000, 3).Strings(), patterns.SnortLike(2000, 2).Strings()}, 61569,
			"6aefec70a3ae1dd7efa6b554dd103989d7407b10342efd9af7a5cbc2e2eb310e",
			"62df8949d011c8f99cc7be68dea96899b2c3b1035af84dfe6fc69def1114d148"},
		// Every pattern registered twice: same states and edges, two
		// refs per match.
		{"duplicated", [][]string{snort1, snort1}, 23206,
			"422c231a0270a5325491dac8e9075aec7ab3acd07f71b3fccf01f4206277da26",
			"d7e003ac8125a832f0d83a79111a030bbaa4836c63db4cb9d1b05aca8f7de9d2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			for i, s := range tc.sets {
				if err := b.AddSet(i, s); err != nil {
					t.Fatal(err)
				}
			}
			a, err := b.BuildFull()
			if err != nil {
				t.Fatal(err)
			}
			if a.NumStates() != tc.states {
				t.Errorf("%d states, want %d", a.NumStates(), tc.states)
			}
			if got := fullDigest(a); got != tc.full {
				t.Errorf("ACFull layout digest %s, want %s", got, tc.full)
			}
			lean, err := b.BuildLean()
			if err != nil {
				t.Fatal(err)
			}
			if got := fullDigest(lean); got != tc.lean {
				t.Errorf("lean layout digest %s, want %s", got, tc.lean)
			}
		})
	}
}

// fullDigest is the SHA-256 of a's layout in the order the retired
// version 2 snapshot wrote it, so the digests of automata without cold
// states carried over: eight uint32 words (magic, version, states,
// accepting states, start state, patterns, stride, entry width in
// bytes), the class map, the rows, the match-table offsets and the refs
// as (set, id, length) uint16 triples. The cold states' arrays follow
// when there are any.
func fullDigest(a *ACFull) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, []uint32{0x44504941, 2,
		uint32(a.numStates), uint32(a.numAccepting), uint32(a.startState), uint32(a.numPatterns), uint32(a.stride), 2})
	h.Write(a.classOf[:])
	binary.Write(h, binary.LittleEndian, a.next)
	binary.Write(h, binary.LittleEndian, a.match.off)
	for _, r := range a.match.refs {
		binary.Write(h, binary.LittleEndian, []uint16{uint16(r.Set), r.ID, r.Len})
	}
	if len(a.cold) > 0 {
		binary.Write(h, binary.LittleEndian, a.hot)
		binary.Write(h, binary.LittleEndian, a.cold)
		h.Write(a.coldLabel)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// refTrie is the automaton built the direct way — one child map per
// state in registration order, a breadth-first walk over the maps in
// byte order — translated to breadth-first ids: each state's children
// (labels ascending), its failure link and its sorted refs.
type refTrie struct {
	kids  [][]int32
	label []byte
	fail  []int32
	out   [][]PatternRef
}

func buildRefTrie(b *Builder) refTrie {
	next := []map[byte]int32{{}}
	own := [][]PatternRef{nil}
	for _, bp := range b.patterns {
		s := int32(0)
		for i := 0; i < len(bp.pat); i++ {
			c, ok := next[s][bp.pat[i]]
			if !ok {
				c = int32(len(next))
				next[s][bp.pat[i]] = c
				next = append(next, map[byte]int32{})
				own = append(own, nil)
			}
			s = c
		}
		own[s] = append(own[s], bp.ref)
	}
	n := len(next)
	bfs, rank := []int32{0}, make([]int32, n)
	r := refTrie{kids: make([][]int32, n), label: make([]byte, n), fail: make([]int32, n), out: make([][]PatternRef, n)}
	failOld := make([]int32, n)
	for h := 0; h < len(bfs); h++ {
		s := bfs[h]
		for c := 0; c < 256; c++ {
			child, ok := next[s][byte(c)]
			if !ok {
				continue
			}
			rank[child] = int32(len(bfs))
			bfs = append(bfs, child)
			r.kids[h] = append(r.kids[h], rank[child])
			r.label[rank[child]] = byte(c)
			if s == 0 {
				continue
			}
			for f := failOld[s]; ; f = failOld[f] {
				if g, ok := next[f][byte(c)]; ok {
					failOld[child] = g
					break
				}
				if f == 0 {
					break
				}
			}
		}
	}
	for h, s := range bfs {
		r.fail[h] = rank[failOld[s]]
		out := append(append([]PatternRef(nil), own[s]...), r.out[r.fail[h]]...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Set != out[j].Set {
				return out[i].Set < out[j].Set
			}
			return out[i].ID < out[j].ID
		})
		if h > 0 {
			r.out[h] = out
		}
	}
	return r
}

// checkTrieAgainstReference compares buildTrie's flat arrays with the
// direct construction, state by state.
func checkTrieAgainstReference(t *testing.T, b *Builder) {
	t.Helper()
	tr, err := b.buildTrie()
	if err != nil {
		t.Fatal(err)
	}
	ref := buildRefTrie(b)
	if tr.numStates() != len(ref.fail) {
		t.Fatalf("%d states, reference %d", tr.numStates(), len(ref.fail))
	}
	for s := int32(0); s < int32(tr.numStates()); s++ {
		var kids []int32
		for c := tr.nodes[s].kids; c < tr.nodes[s+1].kids; c++ {
			kids = append(kids, c)
		}
		if !slices.Equal(kids, ref.kids[s]) {
			t.Fatalf("state %d: children %v, reference %v", s, kids, ref.kids[s])
		}
		if s > 0 && tr.label[s] != ref.label[s] {
			t.Fatalf("state %d: label %q, reference %q", s, tr.label[s], ref.label[s])
		}
		if tr.nodes[s].fail != ref.fail[s] {
			t.Fatalf("state %d: fail %d, reference %d", s, tr.nodes[s].fail, ref.fail[s])
		}
		if out := tr.refs[tr.nodes[s].out:tr.nodes[s+1].out]; !slices.Equal(out, ref.out[s]) {
			t.Fatalf("state %d: refs %v, reference %v", s, out, ref.out[s])
		}
	}
}

// TestTrieEdgeCases runs the builder's corner cases against the direct
// construction and the naive matcher.
func TestTrieEdgeCases(t *testing.T) {
	var every, pairs []string // all 256 byte values as patterns, alone and in pairs
	for c := 0; c < 256; c++ {
		every = append(every, string([]byte{byte(c)}))
		pairs = append(pairs, string([]byte{byte(255 - c), byte(c * 7)}))
	}
	for _, tc := range []struct {
		name   string
		sets   [][]string
		stride int // byte classes per row: the alphabet, plus class 0 unless it is all 256
	}{
		{"duplicate across sets", [][]string{{"abc", "bc", "abc"}, {"abc", "c"}, {"bc"}}, 4},
		{"prefix of another", [][]string{{"hers", "he", "h", "her", "hersh"}}, 5},
		{"registration order is not sorted order", [][]string{{"zeta", "alpha", "mid", "alp", "zz"}, {"b", "a", "zet"}}, 12},
		{"one-byte alphabet", [][]string{{"aaaa", "a", "aaa"}, {"aa", "a"}}, 2},
		{"full 256-byte alphabet", [][]string{every, pairs}, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder()
			var alphabet []byte
			for i, s := range tc.sets {
				if err := b.AddSet(i, s); err != nil {
					t.Fatal(err)
				}
				for _, p := range s {
					alphabet = append(alphabet, p...)
				}
			}
			checkTrieAgainstReference(t, b)
			a, err := b.BuildFull()
			if err != nil {
				t.Fatal(err)
			}
			if a.stride != tc.stride {
				t.Errorf("stride %d, want %d", a.stride, tc.stride)
			}
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			text := make([]byte, 2048)
			for i := range text {
				if rng.Intn(16) == 0 {
					text[i] = byte(rng.Intn(256))
				} else {
					text[i] = alphabet[rng.Intn(len(alphabet))]
				}
			}
			checkAgainstNaive(t, b, a, text, []int{1, 1000})
		})
	}
}

// FuzzFailureLinks checks link against the definitions it implements,
// state by state: a state's failure link is the state of the longest
// proper suffix of its path that is a path of the trie, and its refs are
// those of the patterns that are suffixes of its path, sorted by (set,
// id). link reads transitions from rows for the first hot states and
// walks the failure chains of the others, so the trie is linked at a
// hot count drawn by the fuzzer. pats is read as length-prefixed
// strings (1 to 8 bytes, at most 48, dealt to three sets); each flags
// bit, in turn, also registers a pattern again in the next set, adds a
// proper prefix of it and adds a proper suffix of it.
func FuzzFailureLinks(f *testing.F) {
	var every []byte // 32 patterns of 8 bytes covering all 256 values
	for c := 0; c < 256; c++ {
		if c%8 == 0 {
			every = append(every, 7)
		}
		every = append(every, byte(c))
	}
	f.Add(every, uint64(0x249249249), uint16(3))
	f.Add([]byte{0, 'a', 0, 'b', 1, 'a', 'b', 2, 'b', 'a', 'b', 3, 'a', 'b', 'a', 'b'}, uint64(0xff), uint16(2))
	f.Add([]byte{1, 'h', 'e', 2, 's', 'h', 'e', 2, 'h', 'i', 's', 3, 'h', 'e', 'r', 's'}, uint64(0), uint16(0xffff))
	f.Add([]byte{0, 0, 0, 0xff, 7, 0, 0xff, 0, 0xff, 0, 0xff, 0, 0xff}, uint64(0x5555), uint16(1))
	// fail(xabc) = bc, the transition on c of fail(xab) = ab, which ab's
	// row takes from its own failure target's, b's.
	f.Add([]byte{3, 'x', 'a', 'b', 'c', 1, 'a', 'b', 1, 'b', 'c'}, uint64(0), uint16(0xffff))
	f.Fuzz(func(t *testing.T, pats []byte, flags uint64, hot uint16) {
		b := NewBuilder()
		add := func(p string) {
			n := b.NumPatterns()
			if err := b.Add(n%3, n/3, p); err != nil {
				t.Fatal(err)
			}
		}
		for n := 0; len(pats) > 1 && n < 48; n++ {
			l := min(1+int(pats[0]%8), len(pats)-1)
			p := string(pats[1 : 1+l])
			pats = pats[1+l:]
			add(p)
			for _, extra := range []string{p, p[:len(p)-1], p[1:]} {
				if flags&1 != 0 && extra != "" {
					add(extra)
				}
				flags = flags>>1 | flags<<63
			}
		}
		if b.NumPatterns() == 0 {
			return
		}
		tr, err := b.gotoTrie()
		if err != nil {
			t.Fatal(err)
		}
		tr.link(tr.hotStates(1 + int(hot)%tr.numStates()))
		checkLinksByDefinition(t, b, tr)
	})
}

// checkLinksByDefinition compares tr's failure links and refs with the
// ones its states' paths define.
func checkLinksByDefinition(t *testing.T, b *Builder, tr *trie) {
	t.Helper()
	n := tr.numStates()
	path := make([]string, n)
	stateOf := map[string]int32{"": 0}
	for s := range int32(n) {
		for c := tr.nodes[s].kids; c < tr.nodes[s+1].kids; c++ {
			path[c] = path[s] + string(tr.label[c:c+1])
			stateOf[path[c]] = c
		}
	}
	prefixes := map[string]bool{"": true}
	for _, bp := range b.patterns {
		for l := 1; l <= len(bp.pat); l++ {
			prefixes[bp.pat[:l]] = true
		}
	}
	if len(prefixes) != n || len(stateOf) != n {
		t.Fatalf("%d states, %d distinct paths; the patterns have %d distinct prefixes", n, len(stateOf), len(prefixes))
	}
	for s := range int32(n) {
		p := path[s]
		want := int32(0)
		for l := 1; l < len(p); l++ {
			if g, ok := stateOf[p[l:]]; ok {
				want = g
				break
			}
		}
		if got := tr.nodes[s].fail; got != want {
			t.Fatalf("state %d %q: failure link %d %q, want %d %q", s, p, got, path[got], want, path[want])
		}
		var refs []PatternRef
		for _, bp := range b.patterns {
			if len(bp.pat) <= len(p) && p[len(p)-len(bp.pat):] == bp.pat {
				refs = append(refs, bp.ref)
			}
		}
		sortRefs(refs)
		if got := tr.refs[tr.nodes[s].out:tr.nodes[s+1].out]; !slices.Equal(got, refs) {
			t.Fatalf("state %d %q: refs %v, want %v", s, p, got, refs)
		}
	}
}

// BenchmarkBuildPhases splits BenchmarkBuildFull (root bench_test.go)
// into the compile's three phases on the same pattern sets: goto sorts
// the patterns and builds the goto tree (gotoTrie), link adds the
// failure links and the outputs, and layout renumbers the states and
// writes the rows and the cold states' records (compileFull). Each
// phase is timed alone; the phases before it run with the timer
// stopped.
func BenchmarkBuildPhases(b *testing.B) {
	snort1 := patterns.SnortLike(2000, 1).Strings()
	for _, bc := range []struct {
		name string
		sets [][]string
	}{
		{"snort-2000", [][]string{snort1}},
		{"multi-tenant", [][]string{snort1, patterns.ClamAVLike(2000, 3).Strings(), patterns.SnortLike(2000, 2).Strings()}},
	} {
		bd := NewBuilder()
		for i, s := range bc.sets {
			if err := bd.AddSet(i, s); err != nil {
				b.Fatal(err)
			}
		}
		gotoTrie := func(b *testing.B) *trie {
			tr, err := bd.gotoTrie()
			if err != nil {
				b.Fatal(err)
			}
			return tr
		}
		b.Run(bc.name+"/goto", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gotoTrie(b)
			}
		})
		b.Run(bc.name+"/link", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := gotoTrie(b)
				b.StartTimer()
				tr.link(tr.hotStates(tr.numStates()))
			}
		})
		b.Run(bc.name+"/layout", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tr := gotoTrie(b)
				tr.link(tr.hotStates(tr.numStates()))
				b.StartTimer()
				compileFull(tr, bd.NumPatterns(), tr.numStates())
			}
		})
	}
}
