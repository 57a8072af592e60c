package mpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// This file serializes the full-table automaton. Building the merged
// DFA for a ClamAV-scale set takes seconds and hundreds of megabytes of
// churn; a controller that respawns instances frequently (scale-out,
// MCA² dedicated allocation — Section 4.3) can build once per
// configuration version and warm-start every subsequent instance from
// the snapshot.

const (
	snapMagic = 0x44504941 // "DPIA"
	// Version 2 stores the table as ACFull holds it: the byte-class map,
	// then rows of stride entries at the entry width. Version 1 (256
	// int32 entries per row) is not read.
	snapVersion = 2

	// snapChunk is how many integers move per read or write.
	snapChunk = 4096
	// snapMaxStates bounds the header's state count; more is corrupt.
	snapMaxStates = 1 << 28
)

// Snapshot errors.
var (
	ErrBadSnapshot     = errors.New("mpm: malformed automaton snapshot")
	ErrSnapshotVersion = errors.New("mpm: unsupported snapshot version")
)

// snapInt is an integer a snapshot stores, little-endian at its own
// width.
type snapInt interface{ uint16 | uint32 }

func writeInts[T snapInt](w io.Writer, vs []T) error {
	for len(vs) > 0 {
		n := min(len(vs), snapChunk)
		if err := binary.Write(w, binary.LittleEndian, vs[:n]); err != nil {
			return err
		}
		vs = vs[n:]
	}
	return nil
}

// readInts reads n integers, none above max. The result doubles as the
// integers arrive (and ends at exactly n), so a header that overstates n
// costs no more than twice the memory of the bytes that actually follow
// it.
func readInts[T snapInt](r io.Reader, n int, max uint64) ([]T, error) {
	var (
		out  []T
		size = binary.Size(T(0))
		buf  = make([]byte, min(n, snapChunk)*size)
	)
	for len(out) < n {
		if len(out) == cap(out) {
			grown := make([]T, len(out), min(n, 2*cap(out)+snapChunk))
			copy(grown, out)
			out = grown
		}
		k := min(cap(out)-len(out), snapChunk)
		if _, err := io.ReadFull(r, buf[:k*size]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
		}
		out = out[:len(out)+k]
		for i, at := len(out)-k, 0; i < len(out); i, at = i+1, at+size {
			var v uint64
			if size == 2 {
				v = uint64(binary.LittleEndian.Uint16(buf[at:]))
			} else {
				v = uint64(binary.LittleEndian.Uint32(buf[at:]))
			}
			if v > max {
				return nil, ErrBadSnapshot
			}
			out[i] = T(v)
		}
	}
	return out, nil
}

// WriteTo serializes the automaton: eight uint32 header words (magic,
// version, states, accepting states, start state, patterns, row stride,
// entry width in bytes), the 256-byte class map, the rows, the
// match-table offsets and the refs as (set, id, length) uint16 triples.
// The per-state set bitmaps are derived from the refs on load.
func (a *ACFull) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	width := 2
	if a.next32 != nil {
		width = 4
	}
	err := writeInts(cw, []uint32{
		snapMagic, snapVersion,
		uint32(a.numStates), uint32(a.numAccepting), uint32(a.startState), uint32(a.numPatterns),
		uint32(a.stride), uint32(width),
	})
	if err == nil {
		_, err = cw.Write(a.classOf[:])
	}
	if err == nil {
		err = writeInts(cw, a.next16)
	}
	if err == nil {
		err = writeInts(cw, a.next32)
	}
	if err == nil {
		err = writeInts(cw, a.match.off)
	}
	if err == nil {
		triples := make([]uint16, 0, 3*len(a.match.refs))
		for _, r := range a.match.refs {
			triples = append(triples, uint16(r.Set), r.ID, r.Len)
		}
		err = writeInts(cw, triples)
	}
	return cw.n, err
}

// ReadACFull deserializes a snapshot written by WriteTo. Every field is
// validated before it can index anything, and nothing is allocated on
// the header's word alone.
func ReadACFull(r io.Reader) (*ACFull, error) {
	hdr, err := readInts[uint32](r, 8, math.MaxUint32)
	if err != nil {
		return nil, err
	}
	if hdr[0] != snapMagic {
		return nil, ErrBadSnapshot
	}
	if hdr[1] != snapVersion {
		return nil, ErrSnapshotVersion
	}
	numStates, numAccepting, stride, width := int(hdr[2]), int(hdr[3]), int(hdr[6]), 2
	if numStates > maxNarrowStates {
		width = 4
	}
	if numStates <= 0 || numStates > snapMaxStates || numAccepting > numStates || int(hdr[4]) >= numStates ||
		stride < 1 || stride > 256 || int(hdr[7]) != width {
		return nil, ErrBadSnapshot
	}
	a := &ACFull{
		stride:       stride,
		numAccepting: int32(numAccepting),
		numStates:    numStates,
		numPatterns:  int(hdr[5]),
		startState:   State(hdr[4]),
	}
	if _, err := io.ReadFull(r, a.classOf[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for _, c := range a.classOf {
		if int(c) >= stride {
			return nil, ErrBadSnapshot
		}
	}
	if width == 2 {
		a.next16, err = readInts[uint16](r, numStates*stride, uint64(numStates-1))
	} else {
		a.next32, err = readInts[uint32](r, numStates*stride, uint64(numStates-1))
	}
	if err != nil {
		return nil, err
	}
	m := &a.match
	if m.off, err = readInts[uint32](r, numAccepting+1, math.MaxUint32); err != nil {
		return nil, err
	}
	// Every accepting state has at least one ref.
	if m.off[0] != 0 {
		return nil, ErrBadSnapshot
	}
	for s := 0; s < numAccepting; s++ {
		if m.off[s+1] <= m.off[s] {
			return nil, ErrBadSnapshot
		}
	}
	triples, err := readInts[uint16](r, 3*int(m.off[numAccepting]), math.MaxUint16)
	if err != nil {
		return nil, err
	}
	m.refs = make([]PatternRef, len(triples)/3)
	for i := range m.refs {
		set, id := triples[3*i], triples[3*i+1]
		if set >= MaxSets || id >= MaxPatternsPerSet {
			return nil, ErrBadSnapshot
		}
		m.refs[i] = PatternRef{Set: uint8(set), ID: id, Len: triples[3*i+2]}
	}
	m.fillBitmaps()
	return a, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
