package mpm

import "math/bits"

// ACBitmap is the bitmap-compressed Aho-Corasick automaton in the style
// of Tuck et al. (2004), the classic middle ground in the DPI
// space-time tradeoff the paper's related work surveys (Section 2.2):
// each state stores a 256-bit presence bitmap plus a dense array of its
// real transitions; an input byte indexes the bitmap, and a popcount
// over the preceding words locates the target without search. Misses
// chase failure links as in ACCompact, but hits cost O(1) instead of a
// binary search.
type ACBitmap struct {
	// Per-state: 4 words of bitmap; edge targets dense-packed.
	bitmaps   []uint64 // 4 per state
	edgeStart []int32
	edges     []int32
	fail      []int32

	match        matchTable
	numAccepting int32
	numPatterns  int
	startState   State
}

// BuildBitmap constructs the bitmap-compressed automaton from the
// builder's patterns.
func (b *Builder) BuildBitmap() (*ACBitmap, error) {
	t, err := b.buildTrie()
	if err != nil {
		return nil, err
	}
	oldToNew, newToOld, numAccepting := t.renumber()

	n := len(t.children)
	a := &ACBitmap{
		bitmaps:      make([]uint64, 4*n),
		edgeStart:    make([]int32, n+1),
		fail:         make([]int32, n),
		match:        t.matchTable(newToOld, numAccepting),
		numAccepting: numAccepting,
		numPatterns:  len(b.patterns),
		startState:   oldToNew[0],
	}
	totalEdges := 0
	for _, ch := range t.children {
		totalEdges += len(ch)
	}
	a.edges = make([]int32, 0, totalEdges)
	for newID := int32(0); newID < int32(n); newID++ {
		a.edgeStart[newID] = int32(len(a.edges))
		old := newToOld[newID]
		a.fail[newID] = oldToNew[t.fail[old]]
		ch := t.children[old]
		if len(ch) == 0 {
			continue
		}
		bm := a.bitmaps[newID*4 : newID*4+4]
		for c := range ch {
			bm[c>>6] |= 1 << (c & 63)
		}
		// Append targets in ascending label order so popcount
		// indexing lines up.
		for c := 0; c < 256; c++ {
			if next, ok := ch[byte(c)]; ok {
				a.edges = append(a.edges, oldToNew[next])
			}
		}
	}
	a.edgeStart[n] = int32(len(a.edges))
	return a, nil
}

// Start implements Automaton.
func (a *ACBitmap) Start() State { return a.startState }

// step follows one byte, chasing failure links on misses.
func (a *ACBitmap) step(state State, c byte) State {
	for {
		bm := a.bitmaps[state*4 : state*4+4]
		word, bit := int(c>>6), uint(c&63)
		if bm[word]&(1<<bit) != 0 {
			// Rank of this edge: set bits before it.
			rank := bits.OnesCount64(bm[word] & (1<<bit - 1))
			for w := 0; w < word; w++ {
				rank += bits.OnesCount64(bm[w])
			}
			return a.edges[int(a.edgeStart[state])+rank]
		}
		if state == a.startState {
			return state
		}
		state = a.fail[state]
	}
}

// Scan implements Automaton.
//
//dpi:hotpath
func (a *ACBitmap) Scan(data []byte, state State, active uint64, emit EmitFunc) State {
	acc := a.numAccepting
	for i := 0; i < len(data); i++ {
		state = a.step(state, data[i])
		if state < acc && a.match.bitmaps[state]&active != 0 {
			emit(a.match.refsOf(state), i+1)
		}
	}
	return state
}

// NumStates implements Automaton.
func (a *ACBitmap) NumStates() int { return len(a.fail) }

// NumPatterns implements Automaton.
func (a *ACBitmap) NumPatterns() int { return a.numPatterns }

// NumAccepting reports f, the number of accepting states.
func (a *ACBitmap) NumAccepting() int { return int(a.numAccepting) }

// MemoryBytes implements Automaton.
func (a *ACBitmap) MemoryBytes() int64 {
	return int64(len(a.bitmaps))*8 + int64(len(a.edgeStart))*4 + int64(len(a.edges))*4 + int64(len(a.fail))*4 +
		a.match.memoryBytes()
}
