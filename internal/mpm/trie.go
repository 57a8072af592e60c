package mpm

import "sort"

// Builder accumulates the pattern sets of registered middleboxes and
// constructs merged automata over their union, as the DPI controller does
// when initializing a service instance (Section 5.1).
type Builder struct {
	numSets  int
	patterns []builderPattern
}

type builderPattern struct {
	ref PatternRef
	pat string
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Add registers pattern id of set with the given bytes. Duplicate strings
// — whether within a set or across sets — are legal and are all reported
// on a match, mirroring the controller's internal-ID sharing (Section 4.1).
func (b *Builder) Add(set, id int, pattern string) error {
	if len(pattern) == 0 {
		return ErrEmptyPattern
	}
	if set < 0 || set >= MaxSets {
		return ErrTooManySets
	}
	if id < 0 || id >= MaxPatternsPerSet {
		return ErrTooManyPats
	}
	if set >= b.numSets {
		b.numSets = set + 1
	}
	l := len(pattern)
	if l > 0xffff {
		l = 0xffff
	}
	b.patterns = append(b.patterns, builderPattern{
		ref: PatternRef{Set: uint8(set), ID: uint16(id), Len: uint16(l)},
		pat: pattern,
	})
	return nil
}

// AddSet registers all patterns of one set with sequential IDs.
func (b *Builder) AddSet(set int, patterns []string) error {
	for i, p := range patterns {
		if err := b.Add(set, i, p); err != nil {
			return err
		}
	}
	return nil
}

// NumPatterns reports how many patterns have been added.
func (b *Builder) NumPatterns() int { return len(b.patterns) }

// trie is the phase-one Aho-Corasick goto tree plus the phase-two failure
// function, with outputs already merged down failure chains (so a state
// whose label has an accepted suffix carries that suffix's refs too —
// the suffix-inheritance rule of Section 5.1).
type trie struct {
	children []map[byte]int32
	fail     []int32
	out      [][]PatternRef
	depth    []int32
	bfs      []int32 // states in breadth-first order (root first)
}

// buildTrie constructs the goto tree and failure function.
func (b *Builder) buildTrie() (*trie, error) {
	if len(b.patterns) == 0 {
		return nil, ErrNoPatterns
	}
	t := &trie{
		children: []map[byte]int32{nil},
		fail:     []int32{0},
		out:      [][]PatternRef{nil},
		depth:    []int32{0},
	}
	newNode := func(depth int32) int32 {
		t.children = append(t.children, nil)
		t.fail = append(t.fail, 0)
		t.out = append(t.out, nil)
		t.depth = append(t.depth, depth)
		return int32(len(t.children) - 1)
	}
	// Phase one: insert patterns as chains from the root, sharing
	// common prefixes.
	for _, bp := range b.patterns {
		s := int32(0)
		for i := 0; i < len(bp.pat); i++ {
			c := bp.pat[i]
			next, ok := t.children[s][c]
			if !ok {
				next = newNode(t.depth[s] + 1)
				if t.children[s] == nil {
					t.children[s] = make(map[byte]int32)
				}
				t.children[s][c] = next
			}
			s = next
		}
		t.out[s] = append(t.out[s], bp.ref)
	}
	// Phase two: BFS to compute failure links; merge the failure
	// target's outputs into each state so suffix patterns are reported.
	t.bfs = make([]int32, 0, len(t.children))
	t.bfs = append(t.bfs, 0)
	var edges [256]int32 // the state's children by label; 0 (the root) is no child
	for head := 0; head < len(t.bfs); head++ {
		s := t.bfs[head]
		// Iterate edges in byte order, not map order, so the BFS order —
		// and therefore state numbering — is identical across builds.
		// Deterministic numbering lets snapshots and golden tests compare
		// automata built independently from the same pattern list.
		for c, child := range t.children[s] {
			edges[c] = child
		}
		for c, child := range edges {
			if child == 0 {
				continue
			}
			edges[c] = 0
			t.bfs = append(t.bfs, child)
			if s == 0 {
				t.fail[child] = 0
				continue
			}
			f := t.fail[s]
			for {
				if next, ok := t.children[f][byte(c)]; ok && next != child {
					t.fail[child] = next
					break
				}
				if f == 0 {
					t.fail[child] = 0
					break
				}
				f = t.fail[f]
			}
		}
	}
	// Merge outputs in BFS order (parents before children) and sort
	// each state's refs for deterministic reporting.
	for _, s := range t.bfs[1:] {
		if fo := t.out[t.fail[s]]; len(fo) > 0 {
			t.out[s] = append(t.out[s], fo...)
		}
		sortRefs(t.out[s])
	}
	return t, nil
}

func sortRefs(refs []PatternRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Set != refs[j].Set {
			return refs[i].Set < refs[j].Set
		}
		return refs[i].ID < refs[j].ID
	})
}

// renumber assigns dense new state IDs with all accepting states first,
// implementing the paper's trick of making acceptance a single
// "state < f" comparison and the match table a direct-access array
// (Section 5.1). It returns old→new and new→old mappings and f, the
// number of accepting states.
func (t *trie) renumber() (oldToNew, newToOld []int32, numAccepting int32) {
	n := int32(len(t.children))
	oldToNew = make([]int32, n)
	newToOld = make([]int32, n)
	next := int32(0)
	for _, s := range t.bfs {
		if len(t.out[s]) > 0 {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	numAccepting = next
	for _, s := range t.bfs {
		if len(t.out[s]) == 0 {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	return oldToNew, newToOld, numAccepting
}

// matchTable is the accepting-state side table, indexed by new state
// ID: the bitmap of sets with a pattern ending in the state, and the
// state's (set, pattern) refs. The refs of all states sit in one array
// in state order, so a match costs an offset pair and a contiguous read
// rather than a slice header per state pointing into the trie's
// scattered allocations.
type matchTable struct {
	bitmaps []uint64
	off     []uint32 // state s owns refs[off[s]:off[s+1]]
	refs    []PatternRef
}

// matchTable builds the direct-access match table and per-state
// middlebox bitmaps for the accepting states.
func (t *trie) matchTable(newToOld []int32, numAccepting int32) matchTable {
	m := matchTable{off: make([]uint32, numAccepting+1)}
	total := 0
	for _, old := range newToOld[:numAccepting] {
		total += len(t.out[old])
	}
	m.refs = make([]PatternRef, 0, total)
	for newID, old := range newToOld[:numAccepting] {
		m.refs = append(m.refs, t.out[old]...)
		m.off[newID+1] = uint32(len(m.refs))
	}
	m.fillBitmaps()
	return m
}

// fillBitmaps derives each state's set bitmap from its refs.
func (m *matchTable) fillBitmaps() {
	m.bitmaps = make([]uint64, len(m.off)-1)
	for s := range m.bitmaps {
		for _, r := range m.refs[m.off[s]:m.off[s+1]] {
			m.bitmaps[s] |= 1 << r.Set
		}
	}
}

// refsOf returns accepting state s's refs. The capacity is clipped so an
// append by the receiver cannot reach the next state's.
//
//dpi:hotpath
func (m *matchTable) refsOf(s State) []PatternRef {
	lo, hi := m.off[s], m.off[s+1]
	return m.refs[lo:hi:hi]
}

// patternRefBytes is the in-memory size of a PatternRef.
const patternRefBytes = 6

func (m *matchTable) memoryBytes() int64 {
	return int64(len(m.bitmaps))*8 + int64(len(m.off))*4 + int64(len(m.refs))*patternRefBytes
}
