package core

import (
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
	"dpiservice/internal/regexengine"
)

// scratch holds every mutable structure one scan needs: the scan
// context read by the emit callback, the report under construction, the
// case-fold buffer, and the per-profile regex anchor bookkeeping.
// Engines hand scratches out of a sync.Pool, so concurrent Inspect calls
// never share per-scan state and steady-state scanning allocates
// nothing.
type scratch struct {
	e       *Engine
	cur     scanCtx
	emitFn  mpm.EmitFunc // pre-bound s.emit, so Scan gets a stable closure
	report  packet.Report
	foldBuf []byte
	// epoch invalidates the anchor bookkeeping between scans without
	// clearing it; it is scratch-local, bumped once per scan.
	epoch uint64
	// rx is indexed parallel to Engine.rxProfiles.
	rx []rxScratch
	// ps carries one inspection's in-flight scan between prepare and
	// finish, so the lane scheduler can interleave the DFA stage of
	// several prepared scans.
	ps pscan
}

// pscan is the state of one inspection between prepare (metrics, flow
// lookup, stopping conditions, report reset) and
// finish (fold scan, regex confirmation, flow-state store, counters).
// For a stateful chain the flow is checked out to this scan for the
// whole span, and state, foldState and offset are its copies.
type pscan struct {
	chain *chainInfo
	tuple packet.FiveTuple
	// sh, bucket and way locate the flow's entry; way is -1 when the
	// flow could not be stored (every way of its bucket checked out).
	sh        *flowShard
	bucket    *flowBucket
	way       int
	scanData  []byte
	limit     int
	state     mpm.State
	foldState mpm.State
	offset    int64
}

// rxScratch is one profile's per-scan anchor bookkeeping (Section 5.3):
// which anchors were seen this scan, and which regex slots saw all of
// theirs and await confirmation.
type rxScratch struct {
	anchorSeen   [][]uint64 // [regexSlot][anchorIdx], epoch-stamped
	distinctSeen []int      // per regexSlot, distinct anchors this epoch
	slotEpoch    []uint64
	candidates   []int // regex slots with all anchors seen this scan
}

// scanCtx carries the state of the scan in progress, referenced by the
// scratch's pre-bound emit closure to keep the hot path allocation-free.
type scanCtx struct {
	chain       *chainInfo
	report      *packet.Report
	offset      int64
	fromRestore bool // scan resumed from a non-start DFA state
	matches     uint64
}

// newScratch sizes a scratch for the engine's compiled profiles.
func (e *Engine) newScratch() *scratch {
	s := &scratch{e: e, rx: make([]rxScratch, len(e.rxProfiles))}
	for i, p := range e.rxProfiles {
		rs := &s.rx[i]
		rs.anchorSeen = make([][]uint64, len(p.regexSlots))
		for j, slot := range p.regexSlots {
			rs.anchorSeen[j] = make([]uint64, slot.numAnchors)
		}
		rs.distinctSeen = make([]int, len(p.regexSlots))
		rs.slotEpoch = make([]uint64, len(p.regexSlots))
	}
	s.emitFn = s.emit
	return s
}

// emit is the automaton callback: it applies the per-middlebox filters
// of Section 5.2 and records surviving matches in the report under
// construction. It is annotated directly because it reaches the scan
// only as a func value (scratch.emitFn), which the static call graph
// cannot follow.
//
//dpi:hotpath
func (s *scratch) emit(refs []mpm.PatternRef, end int) {
	c := &s.cur
	for _, r := range refs {
		bit := uint64(1) << uint(r.Set)
		if c.chain.mask&bit == 0 {
			continue
		}
		p := s.e.profileBySet[r.Set]
		if int(r.ID) >= RegexReportBase {
			// Anchor hit: record toward its regex's completion.
			s.noteAnchor(p, int(r.ID)-RegexReportBase)
			continue
		}
		if p.Stateful {
			pos := c.offset + int64(end)
			if p.StopAfter > 0 && pos > int64(p.StopAfter) {
				continue
			}
			// Offset/depth windows apply over the stream for a
			// stateful middlebox.
			if p.constraints != nil && !checkWindow(p.constraints, r, pos) {
				continue
			}
			c.report.AddMatch(uint8(r.Set), r.ID, uint32(pos))
		} else {
			// Stateless: a pattern longer than the bytes consumed in
			// this packet began in a previous packet — not a match for
			// a per-packet middlebox.
			if c.fromRestore && int(r.Len) > end {
				continue
			}
			if p.StopAfter > 0 && end > p.StopAfter {
				continue
			}
			if p.constraints != nil && !checkWindow(p.constraints, r, int64(end)) {
				continue
			}
			c.report.AddMatch(uint8(r.Set), r.ID, uint32(end))
		}
		c.matches++
	}
}

func (s *scratch) noteAnchor(p *compiledProfile, ord int) {
	if ord >= len(p.anchorOwner) {
		return
	}
	rs := &s.rx[p.rxIndex]
	ao := p.anchorOwner[ord]
	if rs.slotEpoch[ao.slot] != s.epoch {
		rs.slotEpoch[ao.slot] = s.epoch
		rs.distinctSeen[ao.slot] = 0
	}
	if rs.anchorSeen[ao.slot][ao.idx] == s.epoch {
		return // same anchor seen again this packet
	}
	rs.anchorSeen[ao.slot][ao.idx] = s.epoch
	rs.distinctSeen[ao.slot]++
	if rs.distinctSeen[ao.slot] == p.regexSlots[ao.slot].numAnchors {
		rs.candidates = append(rs.candidates, ao.slot)
	}
}

// finishRegexes runs the confirmation stage (Section 5.3): expressions
// whose anchors were all found are evaluated by the full engine, and
// anchor-poor expressions are evaluated directly.
func (s *scratch) finishRegexes(chain *chainInfo, scanData []byte, offset int64) {
	for _, p := range chain.rxMembers {
		rs := &s.rx[p.rxIndex]
		for _, slot := range rs.candidates {
			sl := p.regexSlots[slot]
			s.e.met.regexConfirms.Inc()
			if loc := p.rx.Get(sl.id); loc != nil {
				if m := locMatch(loc, scanData); m >= 0 {
					s.e.met.regexHits.Inc()
					s.addRegexMatch(p, sl.id, m, offset)
				}
			}
		}
		rs.candidates = rs.candidates[:0]
		if p.hasPoor {
			for _, rid := range p.rx.ScanAnchorPoor(scanData) {
				s.e.met.regexHits.Inc()
				s.addRegexMatch(p, rid, len(scanData), offset)
			}
		}
	}
}

func (s *scratch) addRegexMatch(p *compiledProfile, regexID, end int, offset int64) {
	pos := int64(end)
	if p.Stateful {
		pos += offset
	}
	if p.StopAfter > 0 && pos > int64(p.StopAfter) {
		return
	}
	s.cur.report.AddMatch(uint8(p.ID), uint16(RegexReportBase+regexID), uint32(pos))
	s.cur.matches++
}

// locMatch returns the end offset of the expression's first match in
// data, or -1.
func locMatch(c *regexengine.Compiled, data []byte) int {
	loc := c.FindIndex(data)
	if loc == nil {
		return -1
	}
	return loc[1]
}
