package ctlproto

import (
	"encoding/binary"
	"fmt"
)

// The instance_init body is binary, not JSON. It is the one large
// control message — the whole merged configuration, pushed to every
// instance at start, failover and pattern update (Section 5.1) — and on
// a four-tenant configuration JSON made it 322 KB and most of the
// instance's wait for its first verdict. The body is two parts written
// back to back, so a controller can render the second once per
// configuration version and share it between instances:
//
//	head:    "DPII" | format (1) | flags (bit 0: Compact)
//	         | Version | WireKey | WireToken (uint64 big-endian each)
//	         | InstanceID (string)
//	section: profiles (count), each:
//	             Set | Name (string) | flags (bit 0: Stateful, bit 1: ReadOnly)
//	             | StopAfter | Mboxes (count, strings)
//	             | patterns (count), each: RuleID | uvarint(len<<1 | regex) | bytes
//	             | modifiers (count), each: index of its pattern (ascending)
//	                 | flags (bit 0: NoCase) | Offset | Depth
//	         chains (count), each: Tag (uint16 big-endian) | Members (count, strings)
//
// Only the content patterns with a modifier are listed, so a profile
// without any pays one byte for the list.
//
// Integers are uvarints and strings a uvarint length and the bytes.
// The encoding is canonical: DecodeInstanceInit accepts exactly what
// AppendInstanceInit produces (shortest varints, no stray flag bits, no
// empty regex, no empty or out-of-order modifier entry, no trailing
// bytes), so a decoded body re-encodes to the same bytes.

const (
	initMagic  = "DPII"
	initFormat = 2 // 2 added the modifier lists

	initCompact = 1 // head flags

	profStateful = 1 // profile flags
	profReadOnly = 2

	patRegex = 1 // low bit of a pattern's length word

	modNoCase = 1 // modifier flags
)

// Smallest encodings, which bound every count against the bytes left
// before anything is allocated for it.
const (
	minProfile  = 7 // set, name, flags, stop, mboxes, patterns, modifiers
	minPattern  = 2 // rule ID, length word
	minModifier = 4 // index, flags, offset, depth
	minChain    = 3 // tag, members
	minString   = 1 // length
)

// AppendInstanceInit appends m's binary encoding to b.
func AppendInstanceInit(b []byte, m *InstanceInit) []byte {
	return AppendInitSection(AppendInitHead(b, m), m.Profiles, m.Chains)
}

// AppendInitHead appends the per-instance head of m's encoding: every
// field but Profiles and Chains.
func AppendInitHead(b []byte, m *InstanceInit) []byte {
	b = append(b, initMagic...)
	b = append(b, initFormat)
	var flags byte
	if m.Compact {
		flags |= initCompact
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, m.Version)
	b = binary.BigEndian.AppendUint64(b, m.WireKey)
	b = binary.BigEndian.AppendUint64(b, m.WireToken)
	return appendString(b, m.InstanceID)
}

// AppendInitSection appends the profile and chain section of an
// instance_init encoding, which follows AppendInitHead's output.
func AppendInitSection(b []byte, profiles []ProfileDef, chains []ChainDef) []byte {
	b = binary.AppendUvarint(b, uint64(len(profiles)))
	for i := range profiles {
		p := &profiles[i]
		b = binary.AppendUvarint(b, uint64(p.Set))
		b = appendString(b, p.Name)
		var flags byte
		if p.Stateful {
			flags |= profStateful
		}
		if p.ReadOnly {
			flags |= profReadOnly
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(p.StopAfter))
		b = binary.AppendUvarint(b, uint64(len(p.Mboxes)))
		for _, m := range p.Mboxes {
			b = appendString(b, m)
		}
		b = binary.AppendUvarint(b, uint64(len(p.Patterns)))
		for j := range p.Patterns {
			d := &p.Patterns[j]
			b = binary.AppendUvarint(b, uint64(d.RuleID))
			if d.Regex != "" {
				b = binary.AppendUvarint(b, uint64(len(d.Regex))<<1|patRegex)
				b = append(b, d.Regex...)
			} else {
				b = binary.AppendUvarint(b, uint64(len(d.Content))<<1)
				b = append(b, d.Content...)
			}
		}
		b = appendModifiers(b, p.Patterns)
	}
	b = binary.AppendUvarint(b, uint64(len(chains)))
	for _, ch := range chains {
		b = binary.BigEndian.AppendUint16(b, ch.Tag)
		b = binary.AppendUvarint(b, uint64(len(ch.Members)))
		for _, m := range ch.Members {
			b = appendString(b, m)
		}
	}
	return b
}

// appendModifiers appends the modifier list of a profile's patterns.
func appendModifiers(b []byte, pats []PatternDef) []byte {
	n := 0
	for i := range pats {
		if pats[i].Modifiers != (Modifiers{}) {
			n++
		}
	}
	b = binary.AppendUvarint(b, uint64(n))
	for i := range pats {
		m := &pats[i].Modifiers
		if *m == (Modifiers{}) {
			continue
		}
		var flags byte
		if m.NoCase {
			flags |= modNoCase
		}
		b = binary.AppendUvarint(b, uint64(i))
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(m.Offset))
		b = binary.AppendUvarint(b, uint64(m.Depth))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeInstanceInit decodes an instance_init body. Pattern contents
// sub-slice b rather than copying it, so b must not be modified while
// the result is in use. Malformed input returns an error wrapping
// ErrBadEnvelope; what is allocated is bounded by len(b).
func DecodeInstanceInit(b []byte) (InstanceInit, error) {
	r := initReader{b: b}
	var m InstanceInit
	if len(b) < len(initMagic)+2 || string(b[:len(initMagic)]) != initMagic {
		return m, r.fail("bad magic")
	}
	if b[len(initMagic)] != initFormat {
		return m, r.fail(fmt.Sprintf("format %d", b[len(initMagic)]))
	}
	r.off = len(initMagic) + 1
	flags := r.byte()
	if flags&^initCompact != 0 {
		return m, r.fail("head flags")
	}
	m.Compact = flags&initCompact != 0
	m.Version = r.uint64()
	m.WireKey = r.uint64()
	m.WireToken = r.uint64()
	m.InstanceID = r.string()
	if n := r.count(minProfile); n > 0 {
		m.Profiles = make([]ProfileDef, n)
		for i := range m.Profiles {
			r.profile(&m.Profiles[i])
		}
	}
	if n := r.count(minChain); n > 0 {
		m.Chains = make([]ChainDef, n)
		for i := range m.Chains {
			ch := &m.Chains[i]
			ch.Tag = r.uint16()
			ch.Members = r.strings()
		}
	}
	if r.err != "" {
		return InstanceInit{}, r.fail(r.err)
	}
	if r.off != len(b) {
		return InstanceInit{}, r.fail("trailing bytes")
	}
	return m, nil
}

// initReader walks an instance_init body. The first failure sticks:
// later reads return zero values and the caller checks err once.
type initReader struct {
	b   []byte
	off int
	err string
	at  int // offset of the failure
}

func (r *initReader) fail(why string) error {
	if r.err == "" {
		r.at = r.off
	}
	return fmt.Errorf("%w: instance_init at byte %d: %s", ErrBadEnvelope, r.at, why)
}

func (r *initReader) setErr(why string) {
	if r.err == "" {
		r.err, r.at = why, r.off
		r.off = len(r.b) // stop every later read
	}
}

func (r *initReader) take(n int) []byte {
	if n > len(r.b)-r.off {
		r.setErr("truncated")
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

func (r *initReader) byte() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *initReader) uint16() uint16 {
	if p := r.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (r *initReader) uint64() uint64 {
	if p := r.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// uvarint reads a shortest-form uvarint.
func (r *initReader) uvarint() uint64 {
	if r.err != "" {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.setErr("bad varint")
		return 0
	}
	if n > 1 && r.b[r.off+n-1] == 0 {
		r.setErr("overlong varint")
		return 0
	}
	r.off += n
	return v
}

func (r *initReader) int() int { return int(r.uvarint()) }

// count reads an element count and checks that the bytes left can hold
// that many elements of at least min bytes each.
func (r *initReader) count(min int) int {
	n := r.uvarint()
	if n > uint64((len(r.b)-r.off)/min) {
		r.setErr("count exceeds message")
		return 0
	}
	return int(n)
}

func (r *initReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.setErr("truncated")
		return nil
	}
	return r.take(int(n))
}

func (r *initReader) string() string { return string(r.bytes()) }

func (r *initReader) strings() []string {
	n := r.count(minString)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *initReader) profile(p *ProfileDef) {
	p.Set = r.int()
	p.Name = r.string()
	flags := r.byte()
	if flags&^(profStateful|profReadOnly) != 0 {
		r.setErr("profile flags")
	}
	p.Stateful = flags&profStateful != 0
	p.ReadOnly = flags&profReadOnly != 0
	p.StopAfter = r.int()
	p.Mboxes = r.strings()
	if n := r.count(minPattern); n > 0 {
		p.Patterns = make([]PatternDef, n)
	}
	for i := range p.Patterns {
		d := &p.Patterns[i]
		d.RuleID = r.int()
		w := r.uvarint()
		if w>>1 > uint64(len(r.b)-r.off) {
			r.setErr("truncated")
			return
		}
		body := r.take(int(w >> 1))
		switch {
		case w&patRegex == 0:
			d.Content = body
		case len(body) == 0:
			r.setErr("empty regex")
		default:
			d.Regex = string(body)
		}
	}
	r.modifiers(p.Patterns)
}

// modifiers reads a profile's modifier list onto its patterns: each
// entry names a content pattern after the previous entry's and carries
// at least one modifier.
func (r *initReader) modifiers(pats []PatternDef) {
	n := r.count(minModifier)
	for next := 0; n > 0 && r.err == ""; n-- {
		i := r.int()
		if i < next || i >= len(pats) || pats[i].Regex != "" {
			r.setErr("modifier index")
			return
		}
		flags := r.byte()
		if flags&^modNoCase != 0 {
			r.setErr("modifier flags")
		}
		m := &pats[i].Modifiers
		m.NoCase, m.Offset, m.Depth = flags&modNoCase != 0, r.int(), r.int()
		if *m == (Modifiers{}) {
			r.setErr("empty modifier")
		}
		next = i + 1
	}
}
