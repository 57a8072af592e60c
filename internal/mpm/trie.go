package mpm

import "slices"

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

// Grow makes room for n more patterns, so that adding them does not
// reallocate.
func (b *Builder) Grow(n int) { b.patterns = slices.Grow(b.patterns, n) }

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
// table of their own: state s's children are the states from
// nodes[s].kids up to nodes[s+1].kids, the edge into c is labelled
// label[c], and the labels ascend.
type trie struct {
	label []byte // label[c]: the byte on the goto edge into state c
	nodes []node // len numStates+1; the last only closes the one before
	refs  []PatternRef

	classOf [256]uint8 // byteClasses
	stride  int

	// Phase one leaves the patterns to link: own[k] is the k-th pattern
	// in sorted order, and end[k] the state it ends in.
	own []PatternRef
	end []int32
}

// node is a trie state's record: its first child (its children are
// the states from there to the next node's kids), its failure link
// (the root's is itself) and where its refs start (they end where the
// next node's start). ACFull keeps the nodes of its cold states; the
// fields share a record so that a step through a cold state reads one
// cache line for them.
type node struct {
	kids, fail int32
	out        uint32
}

func (t *trie) numStates() int { return len(t.label) }

// buildTrie constructs the trie: the goto tree (gotoTrie), then the
// failure function and the outputs (link), reading transitions from
// rows for as many states as BuildFull lays out with rows.
func (b *Builder) buildTrie() (*trie, error) {
	t, err := b.gotoTrie()
	if err != nil {
		return nil, err
	}
	t.link(t.hotStates(t.numStates()))
	return t, nil
}

// gotoTrie constructs the goto tree from flat arrays. The patterns are
// inserted in sorted order, so each one shares with the previous
// exactly their longest common prefix and adds its remaining bytes as
// fresh nodes: no child lookup, no per-node map. A node's position in
// that insertion (lexicographic preorder) among the nodes of its depth
// is its breadth-first rank within the level, so once the nodes of each
// depth are counted, every node gets its breadth-first id as it is
// inserted.
func (b *Builder) gotoTrie() (*trie, error) {
	if len(b.patterns) == 0 {
		return nil, ErrNoPatterns
	}
	order := b.sortedOrder()

	// Count the nodes of each depth: pattern k adds one at every depth
	// from its common prefix with the previous one to its length.
	// end[k] holds that common prefix until the insertion below.
	end := make([]int32, len(order))
	maxLen := 0
	prev := ""
	for k, pi := range order {
		p := b.patterns[pi].pat
		l := 0
		for l < len(p) && l < len(prev) && p[l] == prev[l] {
			l++
		}
		end[k] = int32(l)
		maxLen = max(maxLen, len(p))
		prev = p
	}
	next := make([]int32, maxLen+2) // next[d]: the next free id at depth d
	for k, pi := range order {
		next[end[k]+1]++
		next[len(b.patterns[pi].pat)+1]--
	}
	n, width := int32(1), int32(0) // states so far, nodes at depth d
	for d := 1; d <= maxLen; d++ {
		width += next[d]
		next[d] = n
		n += width
	}

	// Insert in sorted order, each new node at its depth's next id.
	t := &trie{
		label: make([]byte, n),
		nodes: make([]node, n+1),
		own:   make([]PatternRef, len(order)),
		end:   end,
	}
	path := make([]int32, maxLen+1) // path[d]: the previous pattern's node at depth d
	for k, pi := range order {
		bp := &b.patterns[pi]
		for d := int(end[k]); d < len(bp.pat); d++ {
			c := next[d+1]
			next[d+1]++
			t.label[c] = bp.pat[d]
			t.nodes[path[d]].kids++ // counted here, made the first child below
			path[d+1] = c
		}
		end[k] = path[len(bp.pat)]
		t.nodes[end[k]].out++ // own refs; link adds the inherited ones
		t.own[k] = bp.ref
	}
	first := int32(1)
	for s := range t.nodes {
		t.nodes[s].kids, first = first, first+t.nodes[s].kids
	}
	t.byteClasses()
	return t, nil
}

// sortedOrder returns the pattern indices in byte-wise order of their
// strings, equal strings in registration order. It is a stable
// most-significant-byte radix sort: each span of indices that share
// their first d bytes is counted and scattered by byte d (a string that
// ends at d first), then each bucket is sorted from byte d+1, until a
// span is short enough for an insertion sort.
func (b *Builder) sortedOrder() []int32 {
	order := make([]int32, len(b.patterns))
	for i := range order {
		order[i] = int32(i)
	}
	tmp := make([]int32, len(order))
	bucket := make([]uint16, len(order)) // the buckets of a span's patterns
	type span struct{ lo, hi, d int }
	work := []span{{0, len(order), 0}}
	var count [257]int
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		part, d := order[sp.lo:sp.hi], sp.d
		if len(part) <= insertionSortMax {
			b.insertionSort(part, d)
			continue
		}
		first, last := len(count), 0 // the buckets in use
		bk := bucket[:len(part)]
		for j, i := range part {
			k := b.bucket(i, d)
			bk[j] = uint16(k)
			count[k]++
			first, last = min(first, k), max(last, k)
		}
		at := 0
		for k := first; k <= last; k++ {
			count[k], at = at, at+count[k]
		}
		for j, i := range part {
			k := bk[j]
			tmp[count[k]] = i
			count[k]++
		}
		copy(part, tmp[:len(part)])
		lo := 0
		for k := first; k <= last; k++ {
			if hi := count[k]; hi-lo > 1 && k > 0 {
				work = append(work, span{sp.lo + lo, sp.lo + hi, d + 1})
			}
			lo, count[k] = count[k], 0
		}
	}
	return order
}

// insertionSortMax is the longest span sortedOrder sorts by insertion.
const insertionSortMax = 16

// bucket is pattern i's radix-sort bucket at byte d: 0 when it ends
// there, else 1 + the byte.
func (b *Builder) bucket(i int32, d int) int {
	if p := b.patterns[i].pat; d < len(p) {
		return 1 + int(p[d])
	}
	return 0
}

// insertionSort sorts part, patterns that share their first d bytes,
// by the rest, stably.
func (b *Builder) insertionSort(part []int32, d int) {
	for k := 1; k < len(part); k++ {
		i, p := part[k], b.patterns[part[k]].pat[d:]
		j := k
		for ; j > 0 && b.patterns[part[j-1]].pat[d:] > p; j-- {
			part[j] = part[j-1]
		}
		part[j] = i
	}
}

// link adds phase two: the failure function, and the outputs merged
// down it. The failure link of a child c of s on byte b is the
// transition on b of s's failure target, a shallower state. For the
// first hot states that transition is one load from a row of their
// transitions (deltaRows); a failure chain through the states past
// them is walked by goto edges until it reaches one of the first.
func (t *trie) link(hot int) {
	n := int32(t.numStates())
	rows := newDeltaRows(t, int32(hot))
	classOf, nodes := &t.classOf, t.nodes
	for s := int32(1); s < n; s++ {
		lo, hi := nodes[s].kids, nodes[s+1].kids
		if lo == hi {
			continue
		}
		f := nodes[s].fail
		if f < rows.hot {
			row := rows.row(f)
			for c := lo; c < hi; c++ {
				g := int32(row[classOf[t.label[c]]])
				nodes[c].fail = g
				nodes[c].out += nodes[g].out // own refs, then inherited ones
			}
			continue
		}
		for c := lo; c < hi; c++ {
			g := rows.next(f, t.label[c])
			nodes[c].fail = g
			nodes[c].out += nodes[g].out
		}
	}

	// Outputs: a state's refs are its own patterns' plus its failure
	// target's, sorted. Lay the blocks out in state order, put the own
	// refs at the front of each and copy the inherited ones behind. The
	// patterns that end in one state are equal strings, so they are
	// adjacent in sorted order.
	total := uint32(0)
	for s := range nodes {
		nodes[s].out, total = total, total+nodes[s].out
	}
	t.refs = make([]PatternRef, total)
	at := uint32(0)
	for k, s := range t.end {
		if k == 0 || t.end[k-1] != s {
			at = nodes[s].out
		}
		t.refs[at] = t.own[k]
		at++
	}
	for s := int32(1); s < n; s++ {
		blk := t.refs[nodes[s].out:nodes[s+1].out]
		if len(blk) == 0 {
			continue
		}
		f := nodes[s].fail
		inherited := t.refs[nodes[f].out:nodes[f+1].out]
		copy(blk[len(blk)-len(inherited):], inherited)
		if len(inherited) < len(blk) && len(blk) > 1 {
			sortRefs(blk)
		}
	}
	t.own, t.end = nil, nil
}

// deltaRows holds complete transition rows, one breadth-first state id
// per byte class, for those of the first hot states that some failure
// link is read from. A row is made the first time it is asked for: its
// state's failure target's row, which is shallower and made first, with
// the state's own goto edges written over it; the root's missing edges
// lead back to the root. A merge of thousands of patterns asks for a
// few hundred rows, so they are allocated deltaChunk at a time. The
// entries fit 16 bits because hotStates keeps the frontier's end,
// nodes[hot].kids, at most 65 536.
type deltaRows struct {
	t      *trie
	hot    int32
	at     []int32 // at[s]: the index of state s's row; 0 (the root's) until it has one
	chunks [][]uint16
	made   int32
	chain  []int32
}

// deltaChunk is the number of rows deltaRows allocates at once.
const deltaChunk = 64

func newDeltaRows(t *trie, hot int32) *deltaRows {
	r := &deltaRows{t: t, hot: hot, at: make([]int32, hot)}
	r.edges(0, r.add())
	return r
}

// add returns a new row, its index the next one.
func (r *deltaRows) add() []uint16 {
	if r.made%deltaChunk == 0 {
		r.chunks = append(r.chunks, make([]uint16, deltaChunk*r.t.stride))
	}
	r.made++
	return r.index(r.made - 1)
}

// index returns the row at index i.
func (r *deltaRows) index(i int32) []uint16 {
	return r.chunks[i/deltaChunk][int(i%deltaChunk)*r.t.stride:][:r.t.stride]
}

// row returns hot state s's transitions.
func (r *deltaRows) row(s int32) []uint16 {
	if s != 0 && r.at[s] == 0 {
		r.make(s)
	}
	return r.index(r.at[s])
}

// make builds the rows of s and of the states on its failure chain
// that have none, shallowest first.
func (r *deltaRows) make(s int32) {
	chain := r.chain[:0]
	for ; s != 0 && r.at[s] == 0; s = r.t.nodes[s].fail {
		chain = append(chain, s)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		s := chain[i]
		row := r.add()
		copy(row, r.row(r.t.nodes[s].fail))
		r.edges(s, row)
		r.at[s] = r.made - 1
	}
	r.chain = chain
}

// edges writes s's goto edges into its row.
func (r *deltaRows) edges(s int32, row []uint16) {
	for c := r.t.nodes[s].kids; c < r.t.nodes[s+1].kids; c++ {
		row[r.t.classOf[r.t.label[c]]] = uint16(c)
	}
}

// next returns the transition of state f on byte c: down f's failure
// chain by goto edges while it is past the hot states, then one row load.
func (r *deltaRows) next(f int32, c byte) int32 {
	for ; f >= r.hot; f = r.t.nodes[f].fail {
		if g := r.t.child(f, c); g >= 0 {
			return g
		}
	}
	return int32(r.row(f)[r.t.classOf[c]])
}

// child returns s's child on byte c, or -1: a binary search of s's
// ascending edge labels.
func (t *trie) child(s int32, c byte) int32 {
	lo, end := t.nodes[s].kids, t.nodes[s+1].kids
	for hi := end; lo < hi; {
		mid := int32(uint32(lo+hi) >> 1)
		if t.label[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && t.label[lo] == c {
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
// a direct-access array (Section 5.1). It returns the old→new and
// new→old mappings of states [0, hot) and f, the number of accepting
// states below hot. Both groups keep breadth-first order; the states
// from hot on keep their breadth-first ids.
func (t *trie) renumber(hot int32) (oldToNew, newToOld []int32, numAccepting int32) {
	oldToNew = make([]int32, hot)
	newToOld = make([]int32, hot)
	next := int32(0)
	for s := int32(0); s < hot; s++ {
		if t.accepting(s) {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	numAccepting = next
	for s := int32(0); s < hot; s++ {
		if !t.accepting(s) {
			oldToNew[s] = next
			newToOld[next] = s
			next++
		}
	}
	return oldToNew, newToOld, numAccepting
}

func (t *trie) accepting(s int32) bool { return t.nodes[s+1].out > t.nodes[s].out }

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
		m.off[newID+1] = t.nodes[old+1].out
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
