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
// sets the deployed benchmark compiles: the digest of ACFull's layout
// (fullDigest) and of BuildCompact's edge and failure arrays. The
// digests were taken from the map-per-state builder the flat-array one
// replaced, and those of the all-hot automata from before the cold
// states; any change in state numbering, row contents or ref order
// moves them.
func TestCompiledAutomatonGolden(t *testing.T) {
	snort1 := patterns.SnortLike(2000, 1).Strings()
	for _, tc := range []struct {
		name          string
		sets          [][]string
		states        int
		full, compact string
	}{
		{"snort-2000", [][]string{snort1}, 23206,
			"3ac36b91d1c3a57d0717ae9b3731dcc19943d590530d6720e1a13dff6366b80b",
			"3ad3cadbbcec6a2521eb991bb6e77ca32c43152f2967af36f684c195e3c19856"},
		// The three literal sets of the benchmark's multi-tenant workload.
		{"multi-tenant", [][]string{snort1, patterns.ClamAVLike(2000, 3).Strings(), patterns.SnortLike(2000, 2).Strings()}, 61569,
			"6aefec70a3ae1dd7efa6b554dd103989d7407b10342efd9af7a5cbc2e2eb310e",
			"8c41f8b2a75e9020d597a8fdbf4db52b8b534219725e131cebff4214caf53b87"},
		// Every pattern registered twice: same states and edges, two
		// refs per match.
		{"duplicated", [][]string{snort1, snort1}, 23206,
			"422c231a0270a5325491dac8e9075aec7ab3acd07f71b3fccf01f4206277da26",
			"3ad3cadbbcec6a2521eb991bb6e77ca32c43152f2967af36f684c195e3c19856"},
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
			c, err := b.BuildCompact()
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			binary.Write(h, binary.LittleEndian, c.edgeStart)
			h.Write(c.edgeLabels)
			binary.Write(h, binary.LittleEndian, c.edgeTargets)
			binary.Write(h, binary.LittleEndian, c.fail)
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.compact {
				t.Errorf("ACCompact edge digest %s, want %s", got, tc.compact)
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
		for c := tr.kids[s]; c < tr.kids[s+1]; c++ {
			kids = append(kids, c)
		}
		if !slices.Equal(kids, ref.kids[s]) {
			t.Fatalf("state %d: children %v, reference %v", s, kids, ref.kids[s])
		}
		if s > 0 && tr.label[s] != ref.label[s] {
			t.Fatalf("state %d: label %q, reference %q", s, tr.label[s], ref.label[s])
		}
		if tr.fail[s] != ref.fail[s] {
			t.Fatalf("state %d: fail %d, reference %d", s, tr.fail[s], ref.fail[s])
		}
		if out := tr.refs[tr.outOff[s]:tr.outOff[s+1]]; !slices.Equal(out, ref.out[s]) {
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
