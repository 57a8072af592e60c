package mpm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	if err := b.AddSet(0, randomPatterns(rng, 200, 4, 12, 8)); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSet(1, randomPatterns(rng, 150, 4, 12, 8)); err != nil {
		t.Fatal(err)
	}
	orig, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadACFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumStates() != orig.NumStates() ||
		loaded.NumAccepting() != orig.NumAccepting() ||
		loaded.NumPatterns() != orig.NumPatterns() ||
		loaded.Start() != orig.Start() ||
		loaded.MemoryBytes() != orig.MemoryBytes() {
		t.Fatalf("metadata mismatch: %d/%d/%d/%d/%d vs %d/%d/%d/%d/%d",
			loaded.NumStates(), loaded.NumAccepting(), loaded.NumPatterns(), loaded.Start(), loaded.MemoryBytes(),
			orig.NumStates(), orig.NumAccepting(), orig.NumPatterns(), orig.Start(), orig.MemoryBytes())
	}
	// Behavioural equivalence on random text.
	for trial := 0; trial < 20; trial++ {
		text := randomText(rng, 2048, 8)
		want := scanAll(orig, text, AllSets)
		got := scanAll(loaded, text, AllSets)
		if !equalMatches(got, want) {
			t.Fatalf("trial %d: loaded automaton disagrees with original", trial)
		}
	}
}

// TestSnapshotRoundTripWide round-trips an automaton past the uint16
// boundary, whose rows travel as uint32.
func TestSnapshotRoundTripWide(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder()
	pats := randomPatterns(rng, 9000, 8, 14, 26)
	if err := b.AddSet(0, pats); err != nil {
		t.Fatal(err)
	}
	orig, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	if orig.next32 == nil {
		t.Fatalf("%d states built narrow; the set must pass %d", orig.NumStates(), maxNarrowStates)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadACFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.next16 != nil || loaded.MemoryBytes() != orig.MemoryBytes() {
		t.Fatalf("loaded %d bytes (narrow: %v), original %d", loaded.MemoryBytes(), loaded.next16 != nil, orig.MemoryBytes())
	}
	text := randomText(rng, 1<<16, 26)
	injectInto(rng, text, pats, 100)
	wantMs, wantSt := streamScan(orig, text, orig.Start(), AllSets)
	gotMs, gotSt := streamScan(loaded, text, loaded.Start(), AllSets)
	if !equalMatches(wantMs, gotMs) || gotSt != wantSt {
		t.Fatal("loaded wide automaton disagrees with original")
	}
}

// TestSnapshotGolden pins the version 2 layout on the paper's example
// (Figures 4 and 7, patterns over {A B C D E}): the eight header words, then
// class map, rows, offsets and refs at the sizes the header implies.
func TestSnapshotGolden(t *testing.T) {
	a, err := paperBuilder(t).BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	states, accepting, stride := a.NumStates(), a.NumAccepting(), 6
	wantHdr := []uint32{0x44504941, 2, uint32(states), uint32(accepting), uint32(a.Start()), uint32(a.NumPatterns()), uint32(stride), 2}
	for i, w := range wantHdr {
		if got := binary.LittleEndian.Uint32(snap[4*i:]); got != w {
			t.Errorf("header word %d = %#x, want %#x", i, got, w)
		}
	}
	classes := snap[32 : 32+256]
	for c, cl := range classes {
		want := byte(0)
		if c >= 'A' && c <= 'E' {
			want = byte(c-'A') + 1
		}
		if cl != want {
			t.Errorf("class of byte %#x = %d, want %d", c, cl, want)
		}
	}
	refs := len(a.match.refs)
	if want := 32 + 256 + states*stride*2 + (accepting+1)*4 + refs*6; len(snap) != want {
		t.Errorf("snapshot is %d bytes, layout implies %d", len(snap), want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	b := NewBuilder()
	if err := b.AddSet(0, []string{"alpha", "beta", "gamma"}); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Truncations at many cut points must fail cleanly.
	for cut := 0; cut < len(snap); cut += len(snap)/37 + 1 {
		if _, err := ReadACFull(bytes.NewReader(snap[:cut])); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}
	const (
		hdrStates, hdrAccepting, hdrStart, hdrStride, hdrWidth = 8, 12, 16, 24, 28

		classMap = 32
		rows     = classMap + 256
	)
	offsets := rows + a.NumStates()*a.stride*2
	refs := offsets + (a.NumAccepting()+1)*4
	put32 := func(at int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) }
	}
	for _, tc := range []struct {
		name   string
		mutate func([]byte)
		want   error
	}{
		{"bad magic", func(b []byte) { b[0] ^= 0xFF }, ErrBadSnapshot},
		{"version 1", put32(4, 1), ErrSnapshotVersion},
		{"unknown version", put32(4, 99), ErrSnapshotVersion},
		{"absurd state count", put32(hdrStates, 0x7FFFFFFF), ErrBadSnapshot},
		{"no states", put32(hdrStates, 0), ErrBadSnapshot},
		{"more accepting states than states", put32(hdrAccepting, uint32(a.NumStates())+1), ErrBadSnapshot},
		{"start state out of range", put32(hdrStart, uint32(a.NumStates())), ErrBadSnapshot},
		{"zero stride", put32(hdrStride, 0), ErrBadSnapshot},
		{"stride past 256", put32(hdrStride, 257), ErrBadSnapshot},
		{"width the state count does not call for", put32(hdrWidth, 4), ErrBadSnapshot},
		{"class id past the stride", func(b []byte) { b[classMap+'z'] = byte(a.stride) }, ErrBadSnapshot},
		{"transition target past the states", func(b []byte) {
			binary.LittleEndian.PutUint16(b[rows+2*5:], uint16(a.NumStates()))
		}, ErrBadSnapshot},
		{"first offset not zero", put32(offsets, 1), ErrBadSnapshot},
		{"accepting state without refs", put32(offsets+4, 0), ErrBadSnapshot},
		{"set past MaxSets", func(b []byte) { binary.LittleEndian.PutUint16(b[refs:], MaxSets) }, ErrBadSnapshot},
		{"pattern id past MaxPatternsPerSet", func(b []byte) { binary.LittleEndian.PutUint16(b[refs+2:], MaxPatternsPerSet) }, ErrBadSnapshot},
	} {
		bad := append([]byte(nil), snap...)
		tc.mutate(bad)
		if _, err := ReadACFull(bytes.NewReader(bad)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotHeaderAllocatesNothing is the regression test for a
// reader that sized the table from the header: a snapshot claiming the
// largest state count the reader admits (a 256 GiB table), with a few
// rows behind it, must fail as malformed having allocated no more than
// the rows that arrived.
func TestSnapshotHeaderAllocatesNothing(t *testing.T) {
	var snap bytes.Buffer
	if err := writeInts(&snap, []uint32{snapMagic, snapVersion, snapMaxStates, 1, 0, 1, 256, 4}); err != nil {
		t.Fatal(err)
	}
	var classOf [256]byte
	for c := range classOf {
		classOf[c] = byte(c)
	}
	snap.Write(classOf[:])
	snap.Write(make([]byte, 3*256*4+7)) // three rows and a torn entry
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadACFull(bytes.NewReader(snap.Bytes()))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("err = %v, want ErrBadSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("reading a %d-byte snapshot allocated %d bytes", snap.Len(), grew)
	}
}
