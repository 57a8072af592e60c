// Package core implements the DPI service instance (Section 5 of the
// paper): the merged "virtual DPI" engine that scans each packet exactly
// once against the pattern sets of every middlebox on its policy chain
// and emits per-middlebox match reports.
//
// The engine combines:
//   - the merged Aho-Corasick automaton with dense accepting-state IDs,
//     per-state middlebox bitmaps and a direct-access match table
//     (Section 5.1, built by internal/mpm);
//   - per-packet active-middlebox masking, stateful flow tracking (DFA
//     state + byte offset per flow direction), stopping conditions, and
//     the stateless cross-packet filtering rules (Section 5.2);
//   - two-stage regular expression handling via anchor extraction with
//     confirmation by a full regex engine, plus the direct-evaluation
//     path for anchor-poor expressions (Section 5.3);
//   - two layouts of that automaton: the full-table DFA every shared
//     instance runs (Sections 3 and 5.1), and the lean one, failure links
//     below a small front of rows, of MCA² dedicated ones (Section 4.3.1).
package core

import (
	"errors"
	"fmt"
	"strconv"

	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/patterns"
)

// RegexReportBase is added to a regular expression's ID to form the
// pattern ID under which its confirmed matches are reported, keeping
// exact-match IDs and regex IDs distinct in one 15-bit space.
const RegexReportBase = 1 << 14

// AutomatonKind selects the matcher representation: one of the two the
// paper's instances run. NewEngine rejects any other value.
type AutomatonKind int

const (
	// AutoFull selects the full-table Aho-Corasick DFA, the paper's
	// primary engine: 4 MiB of rows (mpm.Builder.BuildFull).
	AutoFull AutomatonKind = iota
	// AutoCompact selects the same automaton with 128 KiB of rows, the
	// memory-lean one of MCA² dedicated instances (Section 4.3.1, BuildLean).
	AutoCompact
)

// Profile describes one registered middlebox as the controller passes it
// at instance initialization (Section 5.1): its patterns and the
// properties governing how its results are produced.
type Profile struct {
	// ID is the middlebox's set index within this instance, in
	// [0, mpm.MaxSets).
	ID int
	// Name is the middlebox's registered name (diagnostics only).
	Name string
	// Stateful middleboxes need scan state carried across the packets
	// of a flow; stateless ones are given only matches contained
	// entirely within a single packet.
	Stateful bool
	// ReadOnly middleboxes receive only results, never packets
	// (an IDS as opposed to an IPS).
	ReadOnly bool
	// StopAfter is the middlebox's stopping condition: how deep into
	// the L7 byte stream it cares about, 0 meaning unlimited. Matches
	// ending beyond it are filtered from this middlebox's results, and
	// the scan itself stops early when every active middlebox's
	// condition has passed.
	StopAfter int
	// Patterns holds the exact patterns and regular expressions.
	Patterns *patterns.Set
}

// Config configures a DPI service instance.
type Config struct {
	// Profiles lists the registered middleboxes. IDs must be unique.
	Profiles []Profile
	// Chains maps a policy-chain tag — the VLAN/MPLS tag the TSA
	// assigns (Section 4.1) — to the middlebox IDs on that chain.
	Chains map[uint16][]int
	// Kind selects the automaton representation.
	Kind AutomatonKind
	// MinAnchorLen overrides the regex anchor extraction threshold;
	// 0 selects the paper's default of 4.
	MinAnchorLen int
	// MaxFlows bounds the flow table; 0 selects a default of 65 536.
	// The table is set-associative: a new flow whose eight-way bucket
	// is full (or whose shard holds MaxFlows/Shards flows) evicts the
	// least recently scanned flow of that bucket.
	MaxFlows int
	// Shards overrides the flow-table shard count (rounded to a power
	// of two, capped at 256); 0 scales with GOMAXPROCS. Shards bound
	// the engine's flow-level parallelism: packets of flows in
	// different shards never contend.
	Shards int
	// Metrics is the registry the engine publishes its instruments
	// into; nil gives the engine a private registry (reachable via
	// Engine.Metrics). Sharing one registry across engines aggregates
	// their counters — usually wrong for per-instance telemetry, so
	// pass a dedicated registry per engine.
	Metrics *obs.Registry
}

// Errors returned by the engine.
var (
	ErrUnknownChain = errors.New("core: unknown policy chain tag")
	ErrDuplicateID  = errors.New("core: duplicate middlebox ID")
	ErrBadProfile   = errors.New("core: invalid middlebox profile")
)

// UnknownChainError reports a scan against an unconfigured chain tag.
// It is a dedicated type (rather than fmt.Errorf at the call site) so
// constructing it on the per-packet path costs one small allocation and
// no formatting; the message is rendered only if something prints it.
// It unwraps to ErrUnknownChain.
type UnknownChainError struct {
	Tag uint16
}

func (e *UnknownChainError) Error() string {
	return ErrUnknownChain.Error() + " " + strconv.Itoa(int(e.Tag))
}

func (e *UnknownChainError) Unwrap() error { return ErrUnknownChain }

const defaultMaxFlows = 1 << 16

// validate checks cross-field invariants and applies defaults.
func (c *Config) validate() error {
	if len(c.Profiles) == 0 {
		return fmt.Errorf("%w: no middlebox profiles", ErrBadProfile)
	}
	seen := make(map[int]bool, len(c.Profiles))
	for _, p := range c.Profiles {
		if p.ID < 0 || p.ID >= mpm.MaxSets {
			return fmt.Errorf("%w: middlebox ID %d out of range", ErrBadProfile, p.ID)
		}
		if seen[p.ID] {
			return fmt.Errorf("%w: %d", ErrDuplicateID, p.ID)
		}
		seen[p.ID] = true
		if p.Patterns == nil || (len(p.Patterns.Patterns) == 0 && len(p.Patterns.Regexes) == 0) {
			return fmt.Errorf("%w: middlebox %d has no patterns", ErrBadProfile, p.ID)
		}
		if p.StopAfter < 0 {
			return fmt.Errorf("%w: middlebox %d negative stopping condition", ErrBadProfile, p.ID)
		}
		for _, pat := range p.Patterns.Patterns {
			if pat.ID < 0 || pat.ID >= RegexReportBase {
				return fmt.Errorf("%w: middlebox %d pattern ID %d out of range [0,%d)",
					ErrBadProfile, p.ID, pat.ID, RegexReportBase)
			}
		}
		for _, rx := range p.Patterns.Regexes {
			if rx.ID < 0 || rx.ID >= RegexReportBase {
				return fmt.Errorf("%w: middlebox %d regex ID %d out of range [0,%d)",
					ErrBadProfile, p.ID, rx.ID, RegexReportBase)
			}
		}
	}
	for tag, chain := range c.Chains {
		for _, id := range chain {
			if !seen[id] {
				return fmt.Errorf("%w: chain %d references unknown middlebox %d", ErrBadProfile, tag, id)
			}
		}
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = defaultMaxFlows
	}
	return nil
}
