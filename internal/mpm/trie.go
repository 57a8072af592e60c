package mpm

import (
	"slices"
	"strings"
)

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
//
// States are numbered in breadth-first order, root first, each state's
// children in ascending label order, so the numbering is fixed by the
// pattern strings alone: snapshots and golden tests can compare automata
// built independently from the same pattern list. In that order the
// children of every state are consecutive, so the goto edges need no
// table of their own: state s's children are the states kids[s] ≤ c <
// kids[s+1], the edge into c is labelled label[c], and the labels ascend.
type trie struct {
	label  []byte   // label[c]: the byte on the goto edge into state c
	kids   []int32  // len numStates+1; children of s are [kids[s], kids[s+1])
	fail   []int32  // failure link; the root's is itself
	outOff []uint32 // len numStates+1; s's refs are refs[outOff[s]:outOff[s+1]]
	refs   []PatternRef
}

func (t *trie) numStates() int { return len(t.fail) }

// buildTrie constructs the goto tree and failure function from flat
// arrays. The patterns are inserted in sorted order, so each one shares
// with the previous exactly their longest common prefix and adds its
// remaining bytes as fresh nodes: no child lookup, no per-node map. A
// node's position in that insertion (lexicographic preorder) among the
// nodes of its depth is its breadth-first rank within the level, so a
// counting sort by depth yields the breadth-first numbering.
func (b *Builder) buildTrie() (*trie, error) {
	if len(b.patterns) == 0 {
		return nil, ErrNoPatterns
	}
	order := make([]int32, len(b.patterns))
	maxNodes := 1
	for i, bp := range b.patterns {
		order[i] = int32(i)
		maxNodes += len(bp.pat)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		return strings.Compare(b.patterns[x].pat, b.patterns[y].pat)
	})

	// Phase one, in preorder ids: node 0 is the root; each new node
	// hangs off the node at the previous depth of the current chain.
	parent := make([]int32, 1, maxNodes)
	label := make([]byte, 1, maxNodes)
	depth := make([]int32, 1, maxNodes)
	end := make([]int32, len(order)) // node where order[k]'s pattern ends
	path := []int32{0}               // path[d]: the previous pattern's node at depth d
	prev := ""
	maxDepth := 0
	for k, pi := range order {
		p := b.patterns[pi].pat
		l := 0
		for l < len(p) && l < len(prev) && p[l] == prev[l] {
			l++
		}
		path = path[:l+1]
		for d := l; d < len(p); d++ {
			path = append(path, int32(len(parent)))
			parent = append(parent, path[d])
			label = append(label, p[d])
			depth = append(depth, int32(d+1))
		}
		end[k] = path[len(p)]
		maxDepth = max(maxDepth, len(p))
		prev = p
	}
	n := len(parent)

	// Breadth-first ids: by depth, then preorder.
	next := make([]int32, maxDepth+2) // next[d]: the next free id at depth d
	for _, d := range depth {
		next[d+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	id := make([]int32, n)
	for pre, d := range depth {
		id[pre] = next[d]
		next[d]++
	}
	t := &trie{
		label:  make([]byte, n),
		kids:   make([]int32, n+1),
		fail:   make([]int32, n),
		outOff: make([]uint32, n+1),
	}
	up := make([]int32, n) // parent, in breadth-first ids
	for pre := 1; pre < n; pre++ {
		c := id[pre]
		t.label[c] = label[pre]
		up[c] = id[parent[pre]]
		t.kids[up[c]+1]++
	}
	t.kids[0] = 1
	for s := 1; s <= n; s++ {
		t.kids[s] += t.kids[s-1]
	}

	// Phase two: failure links in breadth-first order, so a state's
	// parent and every shallower state already have theirs.
	for c := int32(1); c < int32(n); c++ {
		if up[c] == 0 {
			continue
		}
		for f := t.fail[up[c]]; ; f = t.fail[f] {
			if g := t.child(f, t.label[c]); g >= 0 {
				t.fail[c] = g
				break
			}
			if f == 0 {
				break
			}
		}
	}

	// Outputs: a state's refs are its own patterns' plus its failure
	// target's (the shallower state is complete first), sorted. Size
	// every state's block, lay the blocks out in state order, put the
	// own refs at the front of each and copy the inherited ones behind.
	own := t.outOff[1:] // sizes first, offsets after the prefix sum
	for _, e := range end {
		own[id[e]]++
	}
	for s := 1; s < n; s++ {
		own[s] += own[t.fail[s]]
	}
	for s := 1; s <= n; s++ {
		t.outOff[s] += t.outOff[s-1]
	}
	t.refs = make([]PatternRef, t.outOff[n])
	fill := append([]uint32(nil), t.outOff[:n]...)
	for k, pi := range order {
		s := id[end[k]]
		t.refs[fill[s]] = b.patterns[pi].ref
		fill[s]++
	}
	for s := 1; s < n; s++ {
		blk := t.refs[fill[s]:t.outOff[s+1]]
		f := t.fail[s]
		copy(blk, t.refs[t.outOff[f]:t.outOff[f+1]])
		if mine := fill[s] - t.outOff[s]; mine > 0 && int(mine)+len(blk) > 1 {
			sortRefs(t.refs[t.outOff[s]:t.outOff[s+1]])
		}
	}
	return t, nil
}

// child returns s's child on byte c, or -1: a binary search of s's
// ascending edge labels.
func (t *trie) child(s int32, c byte) int32 {
	lo, hi := t.kids[s], t.kids[s+1]
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if t.label[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.kids[s+1] && t.label[lo] == c {
		return lo
	}
	return -1
}

func sortRefs(refs []PatternRef) {
	slices.SortFunc(refs, func(x, y PatternRef) int {
		if x.Set != y.Set {
			return int(x.Set) - int(y.Set)
		}
		return int(x.ID) - int(y.ID)
	})
}

// renumber assigns new state IDs to the first hot states in
// breadth-first order, the accepting ones first — the paper's trick of
// making acceptance a single "state < f" comparison and the match table
// a direct-access array (Section 5.1) — and keeps the breadth-first ids
// of the states from hot on. It returns old→new and new→old mappings
// and f, the number of accepting states below hot. Both groups keep
// breadth-first order.
func (t *trie) renumber(hot int32) (oldToNew, newToOld []int32, numAccepting int32) {
	n := int32(t.numStates())
	oldToNew = make([]int32, n)
	newToOld = make([]int32, n)
	next := int32(0)
	for s := int32(0); s < hot; s++ {
		if t.accepting(s) {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	numAccepting = next
	for s := int32(0); s < n; s++ {
		if s >= hot || !t.accepting(s) {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	return oldToNew, newToOld, numAccepting
}

func (t *trie) accepting(s int32) bool { return t.outOff[s+1] > t.outOff[s] }

// matchTable is the accepting-state side table, indexed by new state
// ID: the bitmap of sets with a pattern ending in the state, and the
// state's (set, pattern) refs. The refs of all states sit in one array
// in state order, so a match costs an offset pair and a contiguous read
// rather than a slice header per state.
type matchTable struct {
	bitmaps []uint64
	off     []uint32 // state s owns refs[off[s]:off[s+1]]
	refs    []PatternRef
}

// matchTable builds the direct-access match table and per-state
// middlebox bitmaps for the accepting states [0, numAccepting). They
// keep breadth-first order under renumber and the others below hot own
// no refs, so the trie's ref array already sits in new-ID order and is
// shared as is; the states from hot on own its tail.
func (t *trie) matchTable(newToOld []int32, numAccepting int32) matchTable {
	m := matchTable{off: make([]uint32, numAccepting+1), refs: t.refs}
	for newID, old := range newToOld[:numAccepting] {
		m.off[newID+1] = t.outOff[old+1]
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
