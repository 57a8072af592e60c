package mpm

import (
	"math/rand"
	"sync"
	"testing"

	"dpiservice/internal/patterns"
)

// The fuzz target asserts the tentpole invariant of the two-stage scan
// path: over arbitrary payloads and arbitrary stream fragmentation, the
// prefiltered matcher emits exactly the match stream of the plain
// automaton and lands in the same state.

var (
	pfFuzzOnce  sync.Once
	pfFuzzPlain *ACFull
	pfFuzzTrie  *trie
	pfFuzzPref  *PrefilteredAC
	pfFuzzPats  []string
)

func pfFuzzSetup(t interface{ Fatal(args ...any) }) {
	pfFuzzOnce.Do(func() {
		// A snortlike set (the bench workload) plus short and binary
		// patterns to stress window selection at the length boundary.
		set := patterns.SnortLike(150, 97).Strings()
		set = append(set, "passwd7", "\x00\x01\x02\x03\x04\x05\x06\x07", "AAAAAAAA")
		b := NewBuilder()
		if err := b.AddSet(0, set); err != nil {
			return
		}
		plain, err := b.BuildFull()
		if err != nil {
			return
		}
		tr, err := b.buildTrie()
		if err != nil {
			return
		}
		pf, err := b.BuildPrefiltered()
		if err != nil {
			return
		}
		pfFuzzPlain, pfFuzzTrie, pfFuzzPref, pfFuzzPats = plain, tr, pf, set
	})
	if pfFuzzPlain == nil {
		t.Fatal("fuzz automaton setup failed")
	}
}

func FuzzPrefilterEquivalence(f *testing.F) {
	pfFuzzSetup(f)
	f.Add([]byte("GET /admin/../../etc/passwd HTTP/1.1\r\nHost: x\r\n\r\n"), uint16(10))
	f.Add([]byte(pfFuzzPats[0]+pfFuzzPats[1]+pfFuzzPats[2]), uint16(3))
	f.Add(make([]byte, 4096), uint16(100))
	long := make([]byte, 0, 2048)
	for len(long) < 2048 {
		long = append(long, pfFuzzPats[len(long)%len(pfFuzzPats)]...)
	}
	f.Add(long, uint16(512))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		pfFuzzSetup(t)
		plain, pf := pfFuzzPlain, pfFuzzPref

		// Whole-buffer equivalence.
		var wantMs, gotMs []matchRec
		wantSt := plain.Scan(data, plain.Start(), AllSets, collect(&wantMs, AllSets))
		var stats PrefilterStats
		gotSt := pf.ScanStats(data, pf.Start(), AllSets, collect(&gotMs, AllSets), &stats)
		if gotSt != wantSt {
			t.Fatalf("whole buffer: state %d, want %d", gotSt, wantSt)
		}
		if !equalMatches(wantMs, gotMs) {
			t.Fatalf("whole buffer: %d matches, want %d", len(gotMs), len(wantMs))
		}

		// Streaming equivalence: cut at the fuzzer-chosen point and
		// carry state across, so the carried-state head-region path is
		// driven with adversarial boundaries.
		if len(data) > 0 {
			cut := int(split) % len(data)
			wantMs, gotMs = wantMs[:0], gotMs[:0]
			ws := plain.Scan(data[:cut], plain.Start(), AllSets, collect(&wantMs, AllSets))
			ws = plain.Scan(data[cut:], ws, AllSets, collect(&wantMs, AllSets))
			gs := pf.ScanStats(data[:cut], pf.Start(), AllSets, collect(&gotMs, AllSets), &stats)
			gs = pf.ScanStats(data[cut:], gs, AllSets, collect(&gotMs, AllSets), &stats)
			if gs != ws {
				t.Fatalf("split %d: state %d, want %d", cut, gs, ws)
			}
			if !equalMatches(wantMs, gotMs) {
				t.Fatalf("split %d: %d matches, want %d", cut, len(gotMs), len(wantMs))
			}
		}
	})
}

// FuzzScanLanes asserts the lane scheduler's invariant: however many
// lanes stream through the slots, of whatever lengths and from whatever
// states, each lane's match stream and final state are those of Scan on
// that lane alone. The fuzzer's bytes are the text the lanes walk; the
// seed draws the run's shape — the hot count of the layout (all states
// in one run of four, else 1 to all, so lanes go cold and come back
// side by side with hot ones), 0 to 70 lanes (none, fewer than the
// slots, many refills), 0 to 1500 bytes each, half of them resuming
// mid-pattern, one in eight with every set masked off.
func FuzzScanLanes(f *testing.F) {
	pfFuzzSetup(f)
	f.Add([]byte("GET /admin/../../etc/passwd HTTP/1.1\r\nHost: x\r\n\r\n"), int64(1))
	f.Add([]byte(pfFuzzPats[0]+pfFuzzPats[1]+pfFuzzPats[2]), int64(2))
	f.Add([]byte{}, int64(3))
	f.Add(make([]byte, 64), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		pfFuzzSetup(t)
		a, pats := pfFuzzPlain, pfFuzzPats
		rng := rand.New(rand.NewSource(seed))
		if rng.Intn(4) != 0 {
			a = compileFull(pfFuzzTrie, len(pats), 1+rng.Intn(a.NumStates()))
		}
		lanes := make([]Lane, rng.Intn(71))
		wantStates := make([]State, len(lanes))
		wantMs := make([][]matchRec, len(lanes))
		gotMs := make([][]matchRec, len(lanes))
		for i := range lanes {
			n := rng.Intn(1501)
			if rng.Intn(5) == 0 {
				n = 0
			}
			text := make([]byte, n)
			if len(data) > 0 {
				for j, off := 0, rng.Intn(len(data)); j < len(text); j++ {
					text[j] = data[(off+j)%len(data)]
				}
			}
			injectInto(rng, text, pats, rng.Intn(4))
			st := a.Start()
			if rng.Intn(2) == 0 {
				p := pats[rng.Intn(len(pats))]
				st = a.Scan([]byte(p[:rng.Intn(len(p))]), st, AllSets, func([]PatternRef, int) {})
			}
			active := AllSets
			if rng.Intn(8) == 0 {
				active = 0
			}
			lanes[i] = Lane{Data: text, State: st, Active: active, Emit: collect(&gotMs[i], active)}
			wantStates[i] = a.Scan(text, st, active, collect(&wantMs[i], active))
		}
		a.ScanLanes(lanes)
		for i := range lanes {
			if lanes[i].State != wantStates[i] {
				t.Fatalf("lane %d of %d (%d bytes): state %d, want %d", i, len(lanes), len(lanes[i].Data), lanes[i].State, wantStates[i])
			}
			if !equalMatches(wantMs[i], gotMs[i]) {
				t.Fatalf("lane %d of %d (%d bytes): %d matches, want %d", i, len(lanes), len(lanes[i].Data), len(gotMs[i]), len(wantMs[i]))
			}
		}
	})
}

// FuzzACFullEquivalence asserts the transition-table layout's invariant:
// whatever the patterns' alphabet — and so whatever the byte-class map
// and row stride — and however many states are hot (hot picks 1 to all
// of them), the automaton finds in a payload exactly what the
// naive matcher finds, whole or cut in two packets with the state
// carried, and the lanes agree with the solo scan (checkAgainstNaive).
// The hot counts cover every lean layout (BuildLean, the engine's other
// kind), and the flat-array trie every layout is compiled from must
// equal the direct construction state by state
// (checkTrieAgainstReference). Both the patterns and the payload
// are the fuzzer's: pats is read as length-prefixed strings
// (1 to 8 bytes, at most 64 of them, dealt to three sets), and the
// payload is cut at 4 KiB, which bounds the naive matcher's match list.
func FuzzACFullEquivalence(f *testing.F) {
	var every []byte // 32 patterns of 8 bytes covering all 256 values: no class 0
	for c := 0; c < 256; c++ {
		if c%8 == 0 {
			every = append(every, 7)
		}
		every = append(every, byte(c))
	}
	f.Add(every, []byte("\x00\x01\x02\x03\x04\x05\x06\x07\xf8\xf9\xfa\xfb\xfc\xfd\xfe\xff"), uint16(5), uint16(0xffff))
	f.Add([]byte{0, 'a', 2, 'a', 'a', 'a'}, []byte("aaaaXaaa\x00aa"), uint16(4), uint16(1)) // one byte: class 0 and one more
	f.Add([]byte{1, 'h', 'e', 2, 's', 'h', 'e', 2, 'h', 'i', 's', 3, 'h', 'e', 'r', 's'}, []byte("ushers and his"), uint16(3), uint16(2))
	f.Fuzz(func(t *testing.T, pats, data []byte, split, hot uint16) {
		b := NewBuilder()
		for n := 0; len(pats) > 1 && n < 64; n++ {
			l := min(1+int(pats[0]%8), len(pats)-1)
			if err := b.Add(n%3, n/3, string(pats[1:1+l])); err != nil {
				t.Fatal(err)
			}
			pats = pats[1+l:]
		}
		if b.NumPatterns() == 0 {
			return
		}
		data = data[:min(len(data), 4096)]
		checkTrieAgainstReference(t, b)
		tr, err := b.buildTrie()
		if err != nil {
			t.Fatal(err)
		}
		a := compileFull(tr, len(b.patterns), 1+int(hot)%tr.numStates())
		var cuts []int
		if len(data) > 0 {
			cuts = []int{int(split) % len(data)}
		}
		checkAgainstNaive(t, b, a, data, cuts)
	})
}
