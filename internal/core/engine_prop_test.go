package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dpiservice/internal/patterns"
)

// TestFragmentationInvariance is the engine-level version of the mpm
// streaming property: for a stateful middlebox, any fragmentation of a
// byte stream into packets yields exactly the same match set (patterns
// and stream positions) as any other fragmentation.
func TestFragmentationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pats := []string{"abab", "babb", "aaaa", "abba", "bbbb"}
	mkEngine := func() *Engine {
		cfg := Config{
			Profiles: []Profile{{ID: 0, Stateful: true, Patterns: patterns.FromStrings("s", pats)}},
			Chains:   map[uint16][]int{1: {0}},
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	type m struct {
		pat uint16
		pos uint16
	}
	scan := func(e *Engine, stream []byte, cuts []int) []m {
		var out []m
		prev := 0
		for _, c := range append(cuts, len(stream)) {
			rep, err := e.Inspect(1, testTuple, stream[prev:c])
			if err != nil {
				t.Fatal(err)
			}
			prev = c
			if rep == nil {
				continue
			}
			for _, sec := range rep.Sections {
				for _, en := range sec.Entries {
					for k := uint16(0); k < en.Count; k++ {
						out = append(out, m{en.Pattern, en.Pos + k})
					}
				}
			}
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		stream := make([]byte, 200+rng.Intn(200))
		for i := range stream {
			stream[i] = byte('a' + rng.Intn(2))
		}
		// Two random fragmentations of the same stream.
		mkCuts := func() []int {
			var cuts []int
			for p := 1 + rng.Intn(40); p < len(stream); p += 1 + rng.Intn(40) {
				cuts = append(cuts, p)
			}
			return cuts
		}
		a := scan(mkEngine(), stream, mkCuts())
		b := scan(mkEngine(), stream, mkCuts())
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trial %d: fragmentations disagree:\n%v\n%v", trial, a, b)
		}
	}
}

// TestConcurrentInspect hammers one engine from several goroutines
// (mixed flows, chains and payloads) to exercise the engine's internal
// synchronization under the race detector.
func TestConcurrentInspect(t *testing.T) {
	cfg := twoBoxConfig()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			tuple := testTuple
			payloads := [][]byte{
				[]byte("nothing here"),
				[]byte("attack-sig"),
				[]byte("evil evil evil"),
				[]byte("malware-body and /etc/passwd"),
			}
			for i := 0; i < 500; i++ {
				tuple.SrcPort = uint16(rng.Intn(32))
				tag := uint16(1 + rng.Intn(2))
				if _, err := e.Inspect(tag, tuple, payloads[rng.Intn(len(payloads))]); err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(50) == 0 {
					e.EndFlow(tuple)
				}
				if rng.Intn(100) == 0 {
					_ = e.FlowStats()
					_ = e.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := e.Snapshot()
	if s.Packets != 2000 {
		t.Errorf("Packets = %d, want 2000", s.Packets)
	}
}

// TestManyMiddleboxChains exercises an instance serving several chains
// over eight middlebox sets, checking that every chain sees exactly its
// own sets' matches.
func TestManyMiddleboxChains(t *testing.T) {
	cfg := Config{Chains: map[uint16][]int{}}
	needle := make([]string, 8)
	for i := 0; i < 8; i++ {
		needle[i] = "needle-of-set-" + string(rune('0'+i))
		cfg.Profiles = append(cfg.Profiles, Profile{
			ID: i, Patterns: patterns.FromStrings("s", []string{needle[i], "shared-by-all"}),
		})
	}
	cfg.Chains[1] = []int{0, 1, 2, 3, 4, 5, 6, 7}
	cfg.Chains[2] = []int{0}
	cfg.Chains[3] = []int{6, 7}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("shared-by-all plus needle-of-set-6 here")
	for tag, wantSets := range map[uint16][]uint8{
		1: {0, 1, 2, 3, 4, 5, 6, 7},
		2: {0},
		3: {6, 7},
	} {
		tuple := testTuple
		tuple.SrcPort = tag
		rep, err := e.Inspect(tag, tuple, payload)
		if err != nil {
			t.Fatal(err)
		}
		var gotSets []uint8
		for _, sec := range rep.Sections {
			gotSets = append(gotSets, sec.Mbox)
		}
		if !reflect.DeepEqual(gotSets, wantSets) {
			t.Errorf("tag %d: sets %v, want %v", tag, gotSets, wantSets)
		}
		// Set 6 must additionally carry its needle on chains that
		// include it.
		if sec := rep.SectionFor(6); sec != nil {
			if len(sec.Entries) != 2 {
				t.Errorf("tag %d set 6 entries = %v", tag, sec.Entries)
			}
		}
	}
}
