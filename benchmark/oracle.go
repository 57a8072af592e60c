package main

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"

	"dpiservice/internal/core"
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
)

// The oracle says what every report must contain, from mpm.Naive (every
// pattern at every position via the standard library) and the standard
// regexp package — nothing of the engine under test.
//
// Semantics reproduced (DESIGN.md, Section 5.2 of the paper):
//   - a stateful middlebox sees the flow's concatenated stream; a match
//     is reported with the packet in which it ends, at its stream offset;
//   - a stateless middlebox sees each packet alone, at packet offsets;
//   - a regular expression is confirmed against the packet alone and
//     reported at the end of its first match;
//   - positions are truncated to 16 bits on the wire.

// match is one pattern occurrence as a report carries it.
type match struct {
	Set     uint8 // controller-assigned pattern-set index
	Pattern uint16
	Pos     uint16
}

func sortMatches(ms []match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if a.Pattern != b.Pattern {
			return a.Pattern < b.Pattern
		}
		return a.Pos < b.Pos
	})
}

// expandReport decodes an encoded report into its sorted match list,
// ranges expanded. An empty input is the empty report.
func expandReport(enc []byte, scratch *packet.Report) ([]match, error) {
	if len(enc) == 0 {
		return nil, nil
	}
	n, err := packet.DecodeReport(enc, scratch)
	if err != nil {
		return nil, err
	}
	if n != len(enc) {
		return nil, fmt.Errorf("report has %d trailing bytes", len(enc)-n)
	}
	var out []match
	for _, sec := range scratch.Sections {
		for _, e := range sec.Entries {
			for k := uint16(0); k < e.Count; k++ {
				out = append(out, match{Set: sec.Mbox, Pattern: e.Pattern, Pos: e.Pos + k})
			}
		}
	}
	sortMatches(out)
	return out, nil
}

// refMbox is the oracle's view of one middlebox.
type refMbox struct {
	m      *mbox
	naive  *mpm.Naive // nil when the set has no exact patterns
	maxLen int
	rx     []*regexp.Regexp // by regex ID
}

// flowRef is the reference stream state of one flow: the bytes a match
// could still begin in, and the stream offset after them.
type flowRef struct {
	tail   []byte
	offset int64
}

// expectation is what the oracle demands of one corpus packet's report.
type expectation struct {
	// all is the exact sorted match list when the packet is sent in
	// corpus order to a fresh instance (the verify pass).
	all []match
	// inPacket lists the (set, pattern) pairs lying wholly inside the
	// packet. On a stateful chain these must be reported whatever the
	// flow's history (offsets then depend on evictions the oracle cannot
	// see), so they are what the timed phases check.
	inPacket []match
}

// oracle holds the expectations of a workload's corpus.
type oracle struct {
	w        *workload
	expect   []expectation
	stateful []bool // per chain: some member is stateful
	// verified holds, per corpus packet, the report bytes that passed the
	// exact check. On stateless chains a packet's report never changes,
	// so later results are compared with these bytes.
	verified [][]byte
	seen     []bool
	scratch  packet.Report
}

// newOracle computes the expectation of every corpus packet, in corpus
// order. Middlebox SetIdx values must be final.
func newOracle(w *workload) (*oracle, error) {
	refs := make([]*refMbox, len(w.Mboxes))
	for i, m := range w.Mboxes {
		r := &refMbox{m: m}
		b := mpm.NewBuilder()
		for _, p := range m.Set.Patterns {
			if err := b.Add(m.SetIdx, p.ID, p.Content); err != nil {
				return nil, err
			}
			if len(p.Content) > r.maxLen {
				r.maxLen = len(p.Content)
			}
		}
		if b.NumPatterns() > 0 {
			n, err := b.BuildNaive()
			if err != nil {
				return nil, err
			}
			r.naive = n
		}
		for _, rx := range m.Set.Regexes {
			re, err := regexp.Compile(rx.Expr)
			if err != nil {
				return nil, err
			}
			r.rx = append(r.rx, re)
		}
		refs[i] = r
	}
	o := &oracle{
		w:        w,
		expect:   make([]expectation, len(w.Corpus)),
		stateful: make([]bool, len(w.Chains)),
		verified: make([][]byte, len(w.Corpus)),
		seen:     make([]bool, len(w.Corpus)),
	}
	for c, members := range w.Chains {
		for _, mi := range members {
			if w.Mboxes[mi].Stateful {
				o.stateful[c] = true
			}
		}
	}
	flows := make(map[packet.FiveTuple]*flowRef)
	for i := range w.Corpus {
		chain, tuple, payload := w.at(i)
		fr := flows[tuple]
		if fr == nil {
			fr = &flowRef{}
			flows[tuple] = fr
		}
		e := &o.expect[i]
		keep := 0
		for _, mi := range w.Chains[chain] {
			r := refs[mi]
			if r.naive != nil {
				if r.m.Stateful {
					if r.maxLen-1 > keep {
						keep = r.maxLen - 1
					}
					buf := append(append([]byte(nil), fr.tail...), payload...)
					base := fr.offset - int64(len(fr.tail))
					r.naive.Find(buf, func(ps []mpm.PatternRef, end int) {
						if end <= len(fr.tail) {
							return // ended in an earlier packet
						}
						for _, p := range ps {
							m := match{Set: p.Set, Pattern: p.ID, Pos: uint16(base + int64(end))}
							e.all = append(e.all, m)
							if end-int(p.Len) >= len(fr.tail) {
								e.inPacket = append(e.inPacket, match{Set: p.Set, Pattern: p.ID})
							}
						}
					})
				} else {
					r.naive.Find(payload, func(ps []mpm.PatternRef, end int) {
						for _, p := range ps {
							e.all = append(e.all, match{Set: p.Set, Pattern: p.ID, Pos: uint16(end)})
							e.inPacket = append(e.inPacket, match{Set: p.Set, Pattern: p.ID})
						}
					})
				}
			}
			for id, re := range r.rx {
				loc := re.FindIndex(payload)
				if loc == nil {
					continue
				}
				pos := int64(loc[1])
				if r.m.Stateful {
					pos += fr.offset
				}
				e.all = append(e.all, match{Set: uint8(r.m.SetIdx), Pattern: uint16(core.RegexReportBase + id), Pos: uint16(pos)})
				e.inPacket = append(e.inPacket, match{Set: uint8(r.m.SetIdx), Pattern: uint16(core.RegexReportBase + id)})
			}
		}
		sortMatches(e.all)
		if o.stateful[chain] {
			buf := append(fr.tail, payload...)
			if len(buf) > keep {
				buf = buf[len(buf)-keep:]
			}
			fr.tail = buf
			fr.offset += int64(len(payload))
		}
	}
	return o, nil
}

// checkExact is the verify-pass check: corpus packet i, sent in corpus
// order to a fresh instance, must yield exactly the expected matches.
func (o *oracle) checkExact(i int, report []byte) bool {
	got, err := expandReport(report, &o.scratch)
	if err != nil {
		return false
	}
	want := o.expect[i].all
	if len(got) != len(want) {
		return false
	}
	for k := range got {
		if got[k] != want[k] {
			return false
		}
	}
	o.verified[i] = append([]byte(nil), report...)
	o.seen[i] = true
	return true
}

// checkRepeat checks a later result for corpus packet i. On a stateless
// chain the bytes must equal the verified report. On a stateful chain
// every in-packet match must be present and the report must decode.
func (o *oracle) checkRepeat(i int, report []byte) bool {
	i %= len(o.expect)
	if !o.stateful[o.w.Corpus[i].Chain] {
		return o.seen[i] && bytes.Equal(report, o.verified[i])
	}
	want := o.expect[i].inPacket
	if len(want) == 0 && len(report) == 0 {
		return true
	}
	got, err := expandReport(report, &o.scratch)
	if err != nil {
		return false
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g.Set == w.Set && g.Pattern == w.Pattern {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// matchFraction is the share of corpus packets expected to report.
func (o *oracle) matchFraction() float64 {
	n := 0
	for i := range o.expect {
		if len(o.expect[i].all) > 0 {
			n++
		}
	}
	return float64(n) / float64(len(o.expect))
}

// tally is the failure account of a run. A packet fails when its result
// never came back, when its report disagrees with the oracle, or when a
// verdict the instance owed the middlebox was not delivered.
type tally struct {
	Attempted   int64
	Missing     int64
	Mismatched  int64
	Undelivered int64
}

func (t tally) failed() int64 { return t.Missing + t.Mismatched + t.Undelivered }

func (t tally) failPct() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return 100 * float64(t.failed()) / float64(t.Attempted)
}
