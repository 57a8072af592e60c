package mpm

// ACFull is the full-table Aho-Corasick DFA with the paper's merged-set
// extensions (Section 5.1): every state has a complete transition row,
// so the scan loop is one table load and one compare per input byte;
// accepting states occupy the dense ID range [0, numAccepting); each
// accepting state carries a bitmap of the sets that care about it and a
// direct-access match-table entry with its (set, pattern) pairs.
//
// The table is the one structure every packet of every tenant walks, so
// it is laid out to stay cache-resident. A row has one entry per byte
// class, not per byte: classOf maps the 256 byte values onto the bytes
// that label some trie edge, and every byte no pattern contains shares
// class 0 (from any state such a byte leads where any other of them
// does). An entry is as narrow as the state count allows: uint16 up to
// maxNarrowStates states, uint32 above. Both are fixed by BuildFull from
// the patterns alone; exactly one of next16 and next32 is non-nil.
type ACFull struct {
	classOf      [256]uint8
	stride       int      // entries per row: the number of byte classes
	next16       []uint16 // numStates*stride, row-major
	next32       []uint32
	match        matchTable
	numAccepting int32
	numStates    int
	numPatterns  int
	startState   State
}

// stateID is a transition-table entry: a state id at one of the two
// widths the table is built at.
type stateID interface{ uint16 | uint32 }

// maxNarrowStates is the largest state count whose ids all fit a uint16
// entry.
const maxNarrowStates = 1 << 16

// BuildFull constructs the full-table automaton from the builder's
// patterns.
func (b *Builder) BuildFull() (*ACFull, error) {
	t, err := b.buildTrie()
	if err != nil {
		return nil, err
	}
	return compileFull(t, len(b.patterns), t.numStates() > maxNarrowStates), nil
}

// compileFull lays the trie out as a table of uint32 entries when wide,
// of uint16 entries otherwise.
func compileFull(t *trie, numPatterns int, wide bool) *ACFull {
	oldToNew, newToOld, numAccepting := t.renumber()
	a := &ACFull{
		match:        t.matchTable(newToOld, numAccepting),
		numAccepting: numAccepting,
		numStates:    t.numStates(),
		numPatterns:  numPatterns,
		startState:   oldToNew[0],
	}
	// Class 0 is every byte no pattern contains; the bytes that label an
	// edge take the classes after it in ascending order. When all 256 do,
	// there is no class 0 to keep and they are numbered from it.
	var used [256]bool
	alphabet := 0
	for _, c := range t.label[1:] {
		if !used[c] {
			used[c] = true
			alphabet++
		}
	}
	if alphabet < 256 {
		a.stride = 1
	}
	for c, u := range used {
		if u {
			a.classOf[c] = uint8(a.stride)
			a.stride++
		}
	}
	if wide {
		a.next32 = fillRows[uint32](t, oldToNew, &a.classOf, a.stride)
	} else {
		a.next16 = fillRows[uint16](t, oldToNew, &a.classOf, a.stride)
	}
	return a
}

// fillRows builds the transition rows in BFS order: a missing goto edge
// copies the failure target's (already complete) row entry. The root's
// missing edges self-loop.
func fillRows[S stateID](t *trie, oldToNew []int32, classOf *[256]uint8, stride int) []S {
	next := make([]S, t.numStates()*stride)
	rowOf := func(old int32) []S {
		at := int(oldToNew[old]) * stride
		return next[at : at+stride]
	}
	rootRow := rowOf(0)
	for i := range rootRow {
		rootRow[i] = S(oldToNew[0])
	}
	for s := range int32(t.numStates()) {
		row := rowOf(s)
		if s != 0 {
			copy(row, rowOf(t.fail[s]))
		}
		for c := t.kids[s]; c < t.kids[s+1]; c++ {
			row[classOf[t.label[c]]] = S(oldToNew[c])
		}
	}
	return next
}

// Start implements Automaton.
func (a *ACFull) Start() State { return a.startState }

// Scan implements Automaton. This is the hot loop of the DPI service:
// per byte one class lookup (off the state dependency chain), one table
// load and one compare against numAccepting, and — only on the rare
// accepting states — one bitmap AND against the packet's
// active-middlebox mask (Section 5.2).
//
//dpi:hotpath
func (a *ACFull) Scan(data []byte, state State, active uint64, emit EmitFunc) State {
	if a.next16 != nil {
		return scan(a, a.next16, data, state, active, emit, 0)
	}
	return scan(a, a.next32, data, state, active, emit, 0)
}

// scan is Scan over a table of either width; emitted positions count
// from base, the bytes of the packet already consumed. A lone walk is
// bound by the latency of state → multiply → add → load, so the class is
// applied by re-slicing the table (work that does not wait for the
// state) and only the multiply and the load stay on the chain; the lane
// kernels, bound by instruction count instead, index the plain way.
//
//dpi:hotpath
func scan[S stateID](a *ACFull, next []S, data []byte, state State, active uint64, emit EmitFunc, base int) State {
	cls, stride := &a.classOf, uint(a.stride)
	acc, bitmaps := uint(a.numAccepting), a.match.bitmaps
	s := uint(state)
	for i, c := range data {
		s = uint(next[cls[c]:][s*stride])
		if s < acc && bitmaps[s]&active != 0 {
			emit(a.match.refsOf(State(s)), base+i+1)
		}
	}
	return State(s)
}

// NumStates implements Automaton.
func (a *ACFull) NumStates() int { return a.numStates }

// NumPatterns implements Automaton.
func (a *ACFull) NumPatterns() int { return a.numPatterns }

// NumAccepting reports f, the number of accepting states.
func (a *ACFull) NumAccepting() int { return int(a.numAccepting) }

// MatchRefs returns the match-table entry of an accepting state.
func (a *ACFull) MatchRefs(s State) []PatternRef {
	if s >= a.numAccepting {
		return nil
	}
	return a.match.refsOf(s)
}

// MemoryBytes implements Automaton: the class map, the transition table
// at its entry width and the match table.
func (a *ACFull) MemoryBytes() int64 {
	return int64(len(a.classOf)) + int64(len(a.next16))*2 + int64(len(a.next32))*4 + a.match.memoryBytes()
}
