package mpm

// ACCompact is the failure-link Aho-Corasick automaton: each state keeps
// only its real goto edges (sorted for binary search) plus an explicit
// failure pointer. Memory is proportional to the number of edges rather
// than states×byte classes, at the cost of failure-chain chasing on
// misses.
//
// The paper's MCA² integration (Section 4.3.1) runs this representation
// on dedicated instances handling suspected complexity-attack traffic,
// because the full-table automaton's size makes it cache-hostile exactly
// when an adversary forces deep, scattered traversals.
type ACCompact struct {
	// Edge arrays, concatenated; state s owns
	// edgeLabels[edgeStart[s]:edgeStart[s+1]] (sorted) with parallel
	// targets.
	edgeStart   []int32
	edgeLabels  []byte
	edgeTargets []int32
	fail        []int32

	match        matchTable
	numAccepting int32
	numPatterns  int
	startState   State
}

// BuildCompact constructs the failure-link automaton from the builder's
// patterns.
func (b *Builder) BuildCompact() (*ACCompact, error) {
	t, err := b.buildTrie()
	if err != nil {
		return nil, err
	}
	n := t.numStates()
	oldToNew, newToOld, numAccepting := t.renumber(int32(n))
	a := &ACCompact{
		edgeStart:    make([]int32, n+1),
		edgeLabels:   make([]byte, 0, n-1),
		edgeTargets:  make([]int32, 0, n-1),
		fail:         make([]int32, n),
		match:        t.matchTable(newToOld, numAccepting),
		numAccepting: numAccepting,
		numPatterns:  len(b.patterns),
		startState:   oldToNew[0],
	}
	// Lay out edges grouped by new state ID; the trie's labels already
	// ascend within each state. Every state but the root has one
	// incoming edge.
	for newID := int32(0); newID < int32(n); newID++ {
		a.edgeStart[newID] = int32(len(a.edgeLabels))
		old := newToOld[newID]
		a.fail[newID] = oldToNew[t.nodes[old].fail]
		for c := t.nodes[old].kids; c < t.nodes[old+1].kids; c++ {
			a.edgeLabels = append(a.edgeLabels, t.label[c])
			a.edgeTargets = append(a.edgeTargets, oldToNew[c])
		}
	}
	a.edgeStart[n] = int32(len(a.edgeLabels))
	return a, nil
}

// Start implements Automaton.
func (a *ACCompact) Start() State { return a.startState }

// step follows one input byte from state, chasing failure links on
// misses.
func (a *ACCompact) step(state State, c byte) State {
	for {
		lo, hi := a.edgeStart[state], a.edgeStart[state+1]
		// Binary search within the state's sorted labels.
		for lo < hi {
			mid := (lo + hi) / 2
			if l := a.edgeLabels[mid]; l == c {
				return a.edgeTargets[mid]
			} else if l < c {
				lo = mid + 1
			} else {
				hi = mid
			}
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
func (a *ACCompact) Scan(data []byte, state State, active uint64, emit EmitFunc) State {
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
func (a *ACCompact) NumStates() int { return len(a.fail) }

// NumPatterns implements Automaton.
func (a *ACCompact) NumPatterns() int { return a.numPatterns }

// NumAccepting reports f, the number of accepting states.
func (a *ACCompact) NumAccepting() int { return int(a.numAccepting) }

// MemoryBytes implements Automaton.
func (a *ACCompact) MemoryBytes() int64 {
	return int64(len(a.edgeStart))*4 + int64(len(a.edgeLabels)) + int64(len(a.edgeTargets))*4 + int64(len(a.fail))*4 +
		a.match.memoryBytes()
}
