package mpm

import (
	"math/rand"
	"testing"

	"dpiservice/internal/patterns"
)

func TestScanLanesMatchesScan(t *testing.T) {
	set := patterns.SnortLike(200, 51).Strings()
	b := NewBuilder()
	if err := b.AddSet(0, set); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(53))
	// Sweep lane counts across the kernel widths (1, 4, LaneWidth): runs
	// that never fill the slots, that fill them exactly, and that refill
	// them several times over.
	for _, nLanes := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 40} {
		for trial := 0; trial < 10; trial++ {
			lanes := make([]Lane, nLanes)
			wantStates := make([]State, nLanes)
			wantMs := make([][]matchRec, nLanes)
			gotMs := make([][]matchRec, nLanes)
			for i := range lanes {
				// Mixed lengths (including empty) end the walks at
				// different steps, so slots refill out of order.
				n := rng.Intn(1200)
				if trial == 0 && i == 0 {
					n = 0
				}
				text := randomText(rng, n, 70)
				injectInto(rng, text, set, rng.Intn(3))
				st := a.Start()
				if rng.Intn(2) == 0 && n > 4 {
					// Carried state from a previous fragment.
					st = a.Scan(text[:rng.Intn(4)], st, AllSets, func(refs []PatternRef, end int) {})
					text = text[rng.Intn(4):]
				}
				lanes[i] = Lane{Data: text, State: st, Active: AllSets, Emit: collect(&gotMs[i], AllSets)}
				wantStates[i] = a.Scan(text, st, AllSets, collect(&wantMs[i], AllSets))
			}
			a.ScanLanes(lanes)
			for i := range lanes {
				if lanes[i].State != wantStates[i] {
					t.Fatalf("lanes=%d trial=%d lane=%d: state %d, want %d",
						nLanes, trial, i, lanes[i].State, wantStates[i])
				}
				if !equalMatches(wantMs[i], gotMs[i]) {
					t.Fatalf("lanes=%d trial=%d lane=%d: match stream diverges (%d vs %d)",
						nLanes, trial, i, len(gotMs[i]), len(wantMs[i]))
				}
			}
		}
	}
}

func TestScanLanesDistinctMasks(t *testing.T) {
	setA := patterns.SnortLike(80, 61).Strings()
	setB := patterns.SnortLike(80, 63).Strings()
	b := NewBuilder()
	if err := b.AddSet(0, setA); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSet(1, setB); err != nil {
		t.Fatal(err)
	}
	a, err := b.BuildFull()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	masks := []uint64{SetBit(0), SetBit(1), SetBit(0) | SetBit(1), SetBit(0)}
	lanes := make([]Lane, 4)
	wantStates := make([]State, 4)
	wantMs := make([][]matchRec, 4)
	gotMs := make([][]matchRec, 4)
	for i := range lanes {
		text := randomText(rng, 800, 70)
		injectInto(rng, text, setA, 2)
		injectInto(rng, text, setB, 2)
		lanes[i] = Lane{Data: text, State: a.Start(), Active: masks[i], Emit: collect(&gotMs[i], masks[i])}
		wantStates[i] = a.Scan(text, a.Start(), masks[i], collect(&wantMs[i], masks[i]))
	}
	a.ScanLanes(lanes)
	for i := range lanes {
		if lanes[i].State != wantStates[i] || !equalMatches(wantMs[i], gotMs[i]) {
			t.Fatalf("lane %d (mask %#x): interleaved scan diverges", i, masks[i])
		}
	}
}
