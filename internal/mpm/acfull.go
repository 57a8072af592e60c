package mpm

import "slices"

// ACFull is the full-table Aho-Corasick DFA with the paper's merged-set
// extensions (Section 5.1): a state's transitions are one table load
// and one compare per input byte; each accepting state carries a bitmap
// of the sets that care about it and a direct-access match-table entry
// with its (set, pattern) pairs.
//
// The table is the one structure every packet of every tenant walks, so
// it is laid out to stay cache-resident. A row has one entry per byte
// class, not per byte: classOf maps the 256 byte values onto the bytes
// that label some trie edge, and every byte no pattern contains shares
// class 0 (from any state such a byte leads where any other of them
// does). Only the hot states, the first H in breadth-first order, have
// a row; H is as many as denseBudget holds, so every automaton whose
// full table fits has a row for every state. The states past H are
// cold: each keeps its goto edges and a failure link, as a failure-link
// automaton's states do (BuildLean's few hundred rows leave nearly all
// of them cold), and a walk in one reads them until its failure chain
// reaches a hot state again.
//
// State ids: the hot accepting states are [0, A), the other hot states
// [A, H), in breadth-first order within each group; the cold states
// [H, N) keep their breadth-first ids. A row entry holds the bits of an
// int16: a hot state's id, or −1−j for the cold state H+j. Only children of hot
// states appear in rows, and they are the consecutive states [H,
// kids[H]) (the frontier), so j needs no table. One signed compare,
// e < A, singles out the rare steps that land on an accepting or a cold
// state — the paper's "state < f" (Section 5.1) with the cold states
// below it. That caps H and the frontier at 32 768 states each. All of
// it is fixed by BuildFull from the patterns alone.
type ACFull struct {
	classOf      [256]uint8
	stride       int      // entries per row: the number of byte classes
	next         []uint16 // the hot states' rows, row-major, then the escape row when there are cold states
	hot          int32    // H: states [0, H) have rows
	numAccepting int32    // A: the hot accepting states, [0, A)
	match        matchTable
	cold         []node // N−H+1 records: cold state s is cold[s−H]; the last only closes the one before
	coldLabel    []byte // coldLabel[c−H]: the byte on the goto edge into cold state c
	numStates    int
	numPatterns  int
	startState   State
}

// denseBudget bounds the hot rows: H is the number of rows of
// 2-byte entries that fit it, at most the state count. 4 MiB holds
// every row of the 2 000-rule Snort-like set (23 206 × 84 entries, 3.9
// MB), so its automaton is all hot, and the first 8 192 states of a
// 256-class merge, which take 99.5 % of the steps of multi-tenant's
// traffic (DESIGN.md, "Transition-table layout").
const denseBudget = 4 << 20

// leanBudget bounds the hot rows of BuildLean, the automaton of MCA²
// dedicated instances (Section 4.3.1). On the 8 712- and 36 183-pattern
// Snort-like + ClamAV-like merges it costs 1.02× and 0.93× the memory
// of a failure-link automaton and scans 2–11× as fast; half of it is
// far slower, four times it no faster (DESIGN.md, "Transition-table layout").
const leanBudget = 128 << 10

// maxEscapes bounds both the hot states, whose ids are the entries ≥ 0,
// and the frontier, whose escapes are the entries < 0.
const maxEscapes = 1 << 15

// BuildFull constructs the full-table automaton from the builder's
// patterns.
func (b *Builder) BuildFull() (*ACFull, error) {
	t, err := b.buildTrie()
	if err != nil {
		return nil, err
	}
	return layoutFull(t, len(b.patterns), t.numStates(), true), nil
}

// BuildLean constructs the memory-lean automaton of MCA² dedicated
// instances: BuildFull's layout with rows for only as many states as
// leanBudget holds, so nearly every state is a 13-byte cold record.
func (b *Builder) BuildLean() (*ACFull, error) {
	t, err := b.buildTrie()
	if err != nil {
		return nil, err
	}
	return layoutFull(t, len(b.patterns), leanBudget/(2*t.stride), true), nil
}

// compileFull lays the trie out with rows for at most maxHot states,
// fewer where denseBudget or maxEscapes call for it, and leaves the
// trie as it was: tests lay one trie out at several hot counts.
func compileFull(t *trie, numPatterns, maxHot int) *ACFull {
	return layoutFull(t, numPatterns, maxHot, false)
}

// layoutFull is compileFull. With own set, the automaton takes the
// trie over, so its cold states' nodes are renumbered in place rather
// than in a copy.
func layoutFull(t *trie, numPatterns, maxHot int, own bool) *ACFull {
	a := &ACFull{numStates: t.numStates(), numPatterns: numPatterns, classOf: t.classOf, stride: t.stride}
	hot := t.hotStates(maxHot)
	oldToNew, newToOld, numAccepting := t.renumber(int32(hot))
	a.hot, a.numAccepting, a.startState = int32(hot), numAccepting, oldToNew[0]
	a.match = t.matchTable(newToOld, numAccepting)
	a.next = fillRows(t, oldToNew, &a.classOf, a.stride, hot)
	if hot < a.numStates {
		// The cold states keep the trie's nodes and labels. A failure
		// link to a hot state names its new id, which differs from its
		// breadth-first id only when some hot state accepts.
		a.cold, a.coldLabel = t.nodes[hot:], t.label[hot:]
		if numAccepting > 0 {
			if !own {
				a.cold = slices.Clone(a.cold)
			}
			for i := range a.cold[:len(a.cold)-1] {
				if f := a.cold[i].fail; f < a.hot {
					a.cold[i].fail = oldToNew[f]
				}
			}
		}
	}
	return a
}

// byteClasses numbers the byte classes of a row. Class 0 is every byte
// no pattern contains; the bytes that label an edge take the classes
// after it in ascending order. When all 256 do, there is no class 0 to
// keep and they are numbered from it. stride is the number of classes.
func (t *trie) byteClasses() {
	var used [256]bool
	alphabet := 0
	for _, c := range t.label[1:] {
		if !used[c] {
			used[c] = true
			alphabet++
		}
	}
	if alphabet < 256 {
		t.stride = 1
	}
	for c, u := range used {
		if u {
			t.classOf[c] = uint8(t.stride)
			t.stride++
		}
	}
}

// hotStates is H: at most maxHot, the rows denseBudget holds and
// maxEscapes, and lowered until the cold states a row names, the
// frontier [H, kids[H]), number at most maxEscapes.
func (t *trie) hotStates(maxHot int) int {
	hot := min(t.numStates(), maxHot, denseBudget/(2*t.stride), maxEscapes)
	for int(t.nodes[hot].kids)-hot > maxEscapes {
		hot--
	}
	return hot
}

// fillRows builds the hot states' rows in breadth-first order: a
// missing goto edge copies the failure target's (shallower, so hot and
// already complete) row entry. The root's missing edges self-loop. When
// there are cold states, the escape row follows, every entry −1: a walk
// parked on it leaves the fast path on every byte (see leave).
func fillRows(t *trie, oldToNew []int32, classOf *[256]uint8, stride, hot int) []uint16 {
	rows := hot
	if hot < t.numStates() {
		rows++
	}
	next := make([]uint16, rows*stride)
	rowOf := func(old int32) []uint16 {
		at := int(oldToNew[old]) * stride
		return next[at : at+stride]
	}
	rootRow := rowOf(0)
	for i := range rootRow {
		rootRow[i] = uint16(oldToNew[0])
	}
	for s := range int32(hot) {
		row := rowOf(s)
		if s != 0 {
			copy(row, rowOf(t.nodes[s].fail))
		}
		for c := t.nodes[s].kids; c < t.nodes[s+1].kids; c++ {
			e := int32(hot) - 1 - c // the cold state c, breadth-first id and new id alike
			if int(c) < hot {
				e = oldToNew[c]
			}
			row[classOf[t.label[c]]] = uint16(e)
		}
	}
	for i := hot * stride; i < len(next); i++ {
		next[i] = 0xffff // −1
	}
	return next
}

// Start implements Automaton.
func (a *ACFull) Start() State { return a.startState }

// Scan implements Automaton. This is the hot loop of the DPI service:
// per byte one class lookup (off the state dependency chain), one table
// load and one compare against numAccepting, and — only on the rare
// accepting or cold states — the leave path, with its one bitmap AND
// against the packet's active-middlebox mask (Section 5.2).
//
//dpi:hotpath
func (a *ACFull) Scan(data []byte, state State, active uint64, emit EmitFunc) State {
	w := walk{data: data, active: active, emit: emit}
	return a.solo(&w, len(data), state)
}

// walk is one scan in progress, as far as the leave path needs it: the
// bytes, the active sets and emit callback, and the cold state the walk
// is in (0 while it is hot, which no cold state is).
type walk struct {
	data   []byte // the bytes still to scan
	base   int    // the bytes of the packet already scanned
	cold   int
	active uint64
	emit   EmitFunc
}

// enter returns the row a walk from state reads next: the state's own,
// or for a cold state the escape row, H.
//
//dpi:hotpath
func (w *walk) enter(a *ACFull, state State) int {
	if state >= a.hot {
		w.cold = int(state)
		return int(a.hot)
	}
	w.cold = 0
	return int(state)
}

// exit is the state a walk that reads row next is in.
//
//dpi:hotpath
func (w *walk) exit(row int) State {
	if w.cold != 0 {
		return State(w.cold)
	}
	return State(row)
}

// solo scans w's next n bytes from state. A lone walk is bound by the
// latency of state → multiply → add → load, so the class is applied by
// re-slicing the table (work that does not wait for the state) and
// only the multiply and the load stay on the chain; the lane kernels,
// bound by instruction count instead, index the plain way.
//
//dpi:hotpath
func (a *ACFull) solo(w *walk, n int, state State) State {
	next, cls, stride := a.next, &a.classOf, a.stride
	acc := int16(a.numAccepting)
	s := w.enter(a, state)
	for i, c := range w.data[:n] {
		s = int(next[cls[c]:][s*stride])
		if int16(s) < acc {
			s = a.leave(w, int16(s), i)
		}
	}
	return w.exit(s)
}

// leave completes w's step over byte i whose entry e failed the fast
// path's test: e is a hot accepting state, or e < 0. Then either the
// walk was hot and e names the cold state it steps to, or the walk was
// cold (it read the escape row) and the step is taken here: down the
// cold failure chain until a state has a goto edge on the byte, or
// until a hot state, whose row is exact. It emits the state reached if
// it accepts for a set in w.active, and returns the row w reads next.
//
//dpi:hotpath
func (a *ACFull) leave(w *walk, e int16, i int) int {
	s, hot, end := a.stateOf(int(e)), int(a.hot), w.base+i+1
	if w.cold != 0 {
		s = a.coldStep(w.cold, w.data[i])
	}
	if s < hot {
		w.cold = 0
		if s < int(a.numAccepting) && a.match.bitmaps[s]&w.active != 0 {
			w.emit(a.match.refsOf(State(s)), end)
		}
		return s
	}
	w.cold = s
	if refs := a.coldRefs(s); len(refs) > 0 && setsOf(refs)&w.active != 0 {
		w.emit(refs, end)
	}
	return hot
}

// coldStep returns the state cold state s steps to on byte c.
//
//dpi:hotpath
func (a *ACFull) coldStep(s int, c byte) int {
	hot := int(a.hot)
	for s >= hot {
		r := a.cold[s-hot : s-hot+2]
		lo, end := int(r[0].kids), int(r[1].kids)
		for hi := end; lo < hi; {
			mid := int(uint(lo+hi) >> 1)
			if a.coldLabel[mid-hot] < c {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < end && a.coldLabel[lo-hot] == c {
			return lo
		}
		s = int(r[0].fail)
	}
	return a.stateOf(int(int16(a.next[s*a.stride+int(a.classOf[c])])))
}

// stateOf is the state a row entry e names.
//
//dpi:hotpath
func (a *ACFull) stateOf(e int) int {
	if e < 0 {
		return int(a.hot) - 1 - e
	}
	return e
}

// coldRefs returns cold state s's refs, empty unless it accepts.
//
//dpi:hotpath
func (a *ACFull) coldRefs(s int) []PatternRef {
	r := a.cold[s-int(a.hot):]
	lo, hi := r[0].out, r[1].out
	return a.match.refs[lo:hi:hi]
}

// setsOf is the bitmap of the sets refs belong to.
//
//dpi:hotpath
func setsOf(refs []PatternRef) uint64 {
	var m uint64
	for _, r := range refs {
		m |= 1 << r.Set
	}
	return m
}

// NumStates implements Automaton.
func (a *ACFull) NumStates() int { return a.numStates }

// NumPatterns implements Automaton.
func (a *ACFull) NumPatterns() int { return a.numPatterns }

// NumAccepting reports f, the number of accepting states, hot and cold.
func (a *ACFull) NumAccepting() int {
	n := int(a.numAccepting)
	for i := 1; i < len(a.cold); i++ {
		if a.cold[i].out > a.cold[i-1].out {
			n++
		}
	}
	return n
}

// MatchRefs returns the match-table entry of an accepting state.
func (a *ACFull) MatchRefs(s State) []PatternRef {
	switch {
	case s < a.numAccepting:
		return a.match.refsOf(s)
	case s >= a.hot:
		return a.coldRefs(int(s))
	}
	return nil
}

// MemoryBytes implements Automaton: the class map, the rows, the match
// table and the cold states' records and labels.
func (a *ACFull) MemoryBytes() int64 {
	return int64(len(a.classOf)) + int64(len(a.next))*2 + a.match.memoryBytes() +
		int64(len(a.cold))*coldStateBytes + int64(len(a.coldLabel))
}

// coldStateBytes is the in-memory size of a cold state's node.
const coldStateBytes = 12
