// Package mpm implements the multi-pattern matching engines at the core
// of the DPI service (Sections 3 and 5.1 of the paper):
//
//   - ACFull: the full-table Aho-Corasick DFA — the de-facto standard for
//     NIDS string matching — extended with the paper's "virtual DPI"
//     merging: patterns from many middlebox sets are combined into one
//     automaton, accepting states are renumbered to the dense range
//     {0..f-1} so acceptance is a single compare, each accepting state
//     carries a per-middlebox bitmap for one-instruction relevance
//     filtering, and a direct-access match table maps accepting states to
//     their (set, pattern) pairs, including pairs inherited from patterns
//     that are suffixes of others. A transition row has one entry per
//     byte class (the bytes some pattern contains, plus one class for
//     all the rest) and entries are uint16 while the state ids fit.
//
//     BuildLean lays the same automaton out with rows for only its first
//     few hundred states: every other state keeps its sorted goto edges
//     and an explicit failure link. It trades a failure-chain chase on
//     most bytes for an automaton the size of its trie, and is the
//     representation MCA² dedicated instances use for heavy traffic
//     (Section 4.3.1, following the space-time tradeoff of the authors'
//     earlier work).
//
//   - WuManber: the classical block-shift baseline, for whole-buffer
//     matching comparisons.
//
//   - Naive: an obviously-correct reference matcher used by the property
//     tests to validate all of the above.
//
// All engines report a match as a (set, pattern-ID, end-position) triple,
// where sets correspond to registered middlebox types.
package mpm

import (
	"errors"
	"fmt"
)

// MaxSets is the maximum number of pattern sets (middlebox types) a
// single merged automaton can serve. The per-state relevance filter is a
// single 64-bit bitmap, exactly as the paper suggests for small n
// (Section 5.1); an operator needing more types deploys additional
// grouped instances (Section 4.3).
const MaxSets = 64

// MaxPatternsPerSet bounds pattern IDs so they fit the 15-bit wire
// encoding of match reports.
const MaxPatternsPerSet = 1 << 15

// State is a DFA state handle. The start state of every engine is
// returned by Start; states are only meaningful to the engine that
// produced them.
type State = int32

// PatternRef locates one pattern of one set, with enough information
// (the pattern length) for the scanner's cross-packet filtering.
type PatternRef struct {
	Set uint8  // pattern-set (middlebox type) index
	ID  uint16 // pattern ID within the set
	Len uint16 // pattern length in bytes
}

// EmitFunc receives the refs of an accepting state and the 1-based scan
// position (number of bytes consumed) at which the state was reached: a
// pattern of length L matched the bytes [end-L, end).
type EmitFunc func(refs []PatternRef, end int)

// Automaton is a streaming multi-pattern matcher whose scan state can be
// carried across buffers — the property stateful DPI relies on
// (Section 5.2).
type Automaton interface {
	// Start returns the initial state.
	Start() State
	// Scan consumes data from state, invoking emit for every position
	// where at least one pattern of a set in the active bitmap ends,
	// and returns the resulting state. Bit i of active enables set i;
	// use AllSets to match everything.
	Scan(data []byte, state State, active uint64, emit EmitFunc) State
	// NumStates reports the automaton's state count.
	NumStates() int
	// NumPatterns reports the total number of registered patterns
	// across all sets (counting duplicates once per registration).
	NumPatterns() int
	// MemoryBytes estimates the resident size of the automaton's data
	// structures.
	MemoryBytes() int64
}

// AllSets is the active-bitmap value enabling every set.
const AllSets uint64 = ^uint64(0)

// BufMatcher is a whole-buffer matcher; engines that cannot carry state
// across buffers (Wu-Manber) implement only this.
type BufMatcher interface {
	// Find reports every occurrence of every pattern in data.
	Find(data []byte, emit EmitFunc)
	NumPatterns() int
	MemoryBytes() int64
}

// Errors returned by builders.
var (
	ErrEmptyPattern = errors.New("mpm: empty pattern")
	ErrTooManySets  = fmt.Errorf("mpm: more than %d pattern sets", MaxSets)
	ErrTooManyPats  = fmt.Errorf("mpm: more than %d patterns in one set", MaxPatternsPerSet)
	ErrNoPatterns   = errors.New("mpm: no patterns")
)

// SetBit returns the active-bitmap bit for set i.
func SetBit(i int) uint64 {
	if i < 0 || i >= MaxSets {
		panic(fmt.Sprintf("mpm: set index %d out of range", i))
	}
	return 1 << uint(i)
}
