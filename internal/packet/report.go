package packet

import (
	"encoding/binary"
	"errors"
)

// This file implements the match-report wire format of Section 6.5: a
// single match is reported in 4 bytes, and runs of the same pattern at
// sequential positions (a repeated-character pattern matching a repeated
// input) coalesce into a 6-byte range report. Reports are grouped into
// per-middlebox sections so each middlebox on the chain extracts only its
// own results.
//
// A report travels either as an NSH-like shim layer in front of the
// original packet (EtherTypeReport), or as a dedicated result packet sent
// right after the ECN-marked data packet — the mode the paper's prototype
// uses (Section 6.1).

// Report header layout:
//
//	0      2      3      4        8         9
//	+------+------+------+--------+---------+
//	| "DR" | ver  | flags| pktID  | nSection|
//	+------+------+------+--------+---------+
//	[ 13-byte five-tuple when FlagHasTuple ]
//	sections...
//
// Section layout: mboxID(1) entryCount(2) entries.
// Entry layout: patternID(2, high bit = range) pos(2) [count(2) if range].
const (
	reportMagic0     = 'D'
	reportMagic1     = 'R'
	reportVersion    = 1
	reportHeaderLen  = 9
	tupleEncodedLen  = 13
	entryBaseLen     = 4
	entryRangeExtra  = 2
	sectionHeaderLen = 3

	// FlagHasTuple marks a report that embeds the flow five-tuple, so
	// read-only middleboxes can attribute results without receiving the
	// packet itself (Section 4.2, third option).
	FlagHasTuple uint8 = 1 << 0
	// FlagFinal marks the last report of a flow (emitted on flow
	// teardown by stateful scans).
	FlagFinal uint8 = 1 << 1

	rangeFlag uint16 = 1 << 15
	// MaxPatternID is the largest per-middlebox pattern identifier the
	// wire format can carry.
	MaxPatternID = int(rangeFlag - 1)
)

// ErrBadReport is returned when decoding a malformed report.
var ErrBadReport = errors.New("packet: malformed match report")

// errTooManySections is AppendEncoded's panic value: the section count
// travels in one byte. A package-level value, so that raising it does
// not allocate on the encode path.
var errTooManySections = errors.New("packet: report sections exceed the wire limit of 255")

// Entry is one (possibly ranged) pattern occurrence within a section.
// Pos is the value of the scan counter at the match — the number of
// payload bytes consumed when the pattern's last byte matched — truncated
// to 16 bits on the wire. Count is the number of sequential occurrences
// at positions Pos, Pos+1, ..., Pos+Count-1; it is 1 for a plain match.
type Entry struct {
	Pattern uint16
	Pos     uint16
	Count   uint16
}

// EncodedLen returns the wire size of the entry: 4 bytes, or 6 for a
// range (Count > 1).
func (e Entry) EncodedLen() int {
	if e.Count > 1 {
		return entryBaseLen + entryRangeExtra
	}
	return entryBaseLen
}

// Section holds all results destined for one middlebox.
type Section struct {
	Mbox    uint8
	Entries []Entry
}

// Report is a decoded (or under-construction) match report.
type Report struct {
	PacketID uint32
	Flags    uint8
	Tuple    FiveTuple // meaningful only when Flags&FlagHasTuple != 0
	Sections []Section
}

// Reset clears r for reuse, retaining section storage.
func (r *Report) Reset() {
	r.PacketID = 0
	r.Flags = 0
	r.Tuple = FiveTuple{}
	r.Sections = r.Sections[:0]
}

// AddMatch records one occurrence of pattern for mbox at position pos,
// coalescing with the previous entry of the same section into a range
// when the positions are sequential. Matches must be added in scan order
// (non-decreasing pos) for coalescing to trigger; out-of-order adds are
// still recorded correctly, just without coalescing.
func (r *Report) AddMatch(mbox uint8, pattern uint16, pos uint32) {
	sec := r.section(mbox)
	p16 := uint16(pos)
	if n := len(sec.Entries); n > 0 {
		last := &sec.Entries[n-1]
		if last.Pattern == pattern && last.Count < 0xffff && p16 == last.Pos+last.Count {
			last.Count++
			return
		}
	}
	sec.Entries = append(sec.Entries, Entry{Pattern: pattern, Pos: p16, Count: 1})
}

func (r *Report) section(mbox uint8) *Section {
	for i := range r.Sections {
		if r.Sections[i].Mbox == mbox {
			return &r.Sections[i]
		}
	}
	n := len(r.Sections)
	if n == cap(r.Sections) {
		r.Sections = append(r.Sections, Section{Mbox: mbox})
		return &r.Sections[n]
	}
	// Reuse the slot Reset kept, and with it the Entries storage an
	// earlier cycle grew: a reused report then adds matches without
	// allocating.
	r.Sections = r.Sections[:n+1]
	sec := &r.Sections[n]
	sec.Mbox = mbox
	sec.Entries = sec.Entries[:0]
	return sec
}

// Clone returns a deep copy of the report sharing no storage with r,
// so the copy outlives any reuse of r's buffers.
func (r *Report) Clone() *Report {
	//dpi:coldalloc(match path: >90% of packets match nothing and never clone, §6.5)
	out := &Report{PacketID: r.PacketID, Flags: r.Flags, Tuple: r.Tuple}
	if len(r.Sections) > 0 {
		//dpi:coldalloc(match path: sections copied only for matched packets)
		out.Sections = make([]Section, len(r.Sections))
		for i := range r.Sections {
			out.Sections[i] = Section{
				Mbox:    r.Sections[i].Mbox,
				Entries: append([]Entry(nil), r.Sections[i].Entries...),
			}
		}
	}
	return out
}

// Empty reports whether the report carries no matches.
func (r *Report) Empty() bool {
	for i := range r.Sections {
		if len(r.Sections[i].Entries) > 0 {
			return false
		}
	}
	return true
}

// NumMatches returns the total number of occurrences carried, counting a
// range entry as Count occurrences.
func (r *Report) NumMatches() int {
	n := 0
	for i := range r.Sections {
		for _, e := range r.Sections[i].Entries {
			n += int(e.Count)
		}
	}
	return n
}

// EncodedLen returns the exact wire size of the report.
func (r *Report) EncodedLen() int {
	n := reportHeaderLen
	if r.Flags&FlagHasTuple != 0 {
		n += tupleEncodedLen
	}
	for i := range r.Sections {
		n += sectionHeaderLen
		for _, e := range r.Sections[i].Entries {
			n += e.EncodedLen()
		}
	}
	return n
}

// AppendEncoded appends the wire encoding of r to dst and returns the
// extended slice.
//
//dpi:hotpath
func (r *Report) AppendEncoded(dst []byte) []byte {
	if len(r.Sections) > 255 {
		panic(errTooManySections)
	}
	var hdr [reportHeaderLen]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = reportMagic0, reportMagic1, reportVersion, r.Flags
	binary.BigEndian.PutUint32(hdr[4:8], r.PacketID)
	hdr[8] = uint8(len(r.Sections))
	dst = append(dst, hdr[:]...)
	if r.Flags&FlagHasTuple != 0 {
		dst = append(dst, r.Tuple.Src[:]...)
		dst = append(dst, r.Tuple.Dst[:]...)
		var p [5]byte
		binary.BigEndian.PutUint16(p[0:2], r.Tuple.SrcPort)
		binary.BigEndian.PutUint16(p[2:4], r.Tuple.DstPort)
		p[4] = r.Tuple.Protocol
		dst = append(dst, p[:]...)
	}
	for i := range r.Sections {
		s := &r.Sections[i]
		var sh [sectionHeaderLen]byte
		sh[0] = s.Mbox
		binary.BigEndian.PutUint16(sh[1:3], uint16(len(s.Entries)))
		dst = append(dst, sh[:]...)
		for _, e := range s.Entries {
			var eb [entryBaseLen + entryRangeExtra]byte
			pid := e.Pattern
			n := entryBaseLen
			if e.Count > 1 {
				pid |= rangeFlag
				binary.BigEndian.PutUint16(eb[4:6], e.Count)
				n += entryRangeExtra
			}
			binary.BigEndian.PutUint16(eb[0:2], pid)
			binary.BigEndian.PutUint16(eb[2:4], e.Pos)
			dst = append(dst, eb[:n]...)
		}
	}
	return dst
}

// DecodeReport parses a wire-format report into r (which is Reset first)
// and returns the number of bytes consumed.
func DecodeReport(data []byte, r *Report) (int, error) {
	r.Reset()
	if len(data) < reportHeaderLen {
		return 0, ErrBadReport
	}
	if data[0] != reportMagic0 || data[1] != reportMagic1 || data[2] != reportVersion {
		return 0, ErrBadReport
	}
	r.Flags = data[3]
	r.PacketID = binary.BigEndian.Uint32(data[4:8])
	nSections := int(data[8])
	off := reportHeaderLen
	if r.Flags&FlagHasTuple != 0 {
		if len(data) < off+tupleEncodedLen {
			return 0, ErrBadReport
		}
		copy(r.Tuple.Src[:], data[off:off+4])
		copy(r.Tuple.Dst[:], data[off+4:off+8])
		r.Tuple.SrcPort = binary.BigEndian.Uint16(data[off+8 : off+10])
		r.Tuple.DstPort = binary.BigEndian.Uint16(data[off+10 : off+12])
		r.Tuple.Protocol = data[off+12]
		off += tupleEncodedLen
	}
	for s := 0; s < nSections; s++ {
		if len(data) < off+sectionHeaderLen {
			return 0, ErrBadReport
		}
		sec := Section{Mbox: data[off]}
		count := int(binary.BigEndian.Uint16(data[off+1 : off+3]))
		off += sectionHeaderLen
		sec.Entries = make([]Entry, 0, count)
		for e := 0; e < count; e++ {
			if len(data) < off+entryBaseLen {
				return 0, ErrBadReport
			}
			pid := binary.BigEndian.Uint16(data[off : off+2])
			ent := Entry{Pattern: pid &^ rangeFlag, Pos: binary.BigEndian.Uint16(data[off+2 : off+4]), Count: 1}
			off += entryBaseLen
			if pid&rangeFlag != 0 {
				if len(data) < off+entryRangeExtra {
					return 0, ErrBadReport
				}
				ent.Count = binary.BigEndian.Uint16(data[off : off+2])
				off += entryRangeExtra
			}
			sec.Entries = append(sec.Entries, ent)
		}
		r.Sections = append(r.Sections, sec)
	}
	return off, nil
}

// SectionFor returns the section destined for mbox, or nil.
func (r *Report) SectionFor(mbox uint8) *Section {
	for i := range r.Sections {
		if r.Sections[i].Mbox == mbox {
			return &r.Sections[i]
		}
	}
	return nil
}
