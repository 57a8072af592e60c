package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dpiservice/internal/patterns"
)

// TestStatefulFlowsAcrossEntryWidths runs one stateful flow through
// engines whose merged automaton has 65 535, 65 536 and 65 537 states —
// the last count whose ids a uint16 entry held, and one past it, where
// the table's entries used to double to uint32 — and asks of each what
// the size must not change: patterns cut by a packet boundary are found
// from the state the flow carried, the lane scheduler reports what
// per-packet Inspect reports, and the IDS's section is the same at
// every size. The entries are 16-bit at all three, and the filler's
// deep states are cold (past the 32 768 hot ones), so the cuts inside
// it carry a cold state across packets.
func TestStatefulFlowsAcrossEntryWidths(t *testing.T) {
	const low = 65535
	rng := rand.New(rand.NewSource(59))
	// The sets differ in one pattern of the second middlebox: a prefix of
	// long, whose first byte no IDS pattern contains, so that n bytes of it
	// add exactly n states.
	long := "#" + randomLower(rng, 4095)
	var ids []string
	prefixes := map[string]bool{}
	states := 1 // the root, then one per distinct prefix
	for states < low-len(long)/2 {
		p := randomLower(rng, 6+rng.Intn(9))
		ids = append(ids, p)
		for n := 1; n <= len(p); n++ {
			if !prefixes[p[:n]] {
				prefixes[p[:n]] = true
				states++
			}
		}
	}
	head := randomLower(rng, 300) + ids[3] + randomLower(rng, 80)
	tail := ids[7] + randomLower(rng, 200) + ids[11]
	var wantIDS [][]rec
	for _, target := range []int{low, low + 1, low + 2} {
		filler := long[:target-states]
		cfg := Config{
			Profiles: []Profile{
				{ID: 0, Name: "ids", Stateful: true, ReadOnly: true, Patterns: patterns.FromStrings("ids", ids)},
				{ID: 1, Name: "long", Stateful: true, ReadOnly: true, Patterns: patterns.FromStrings("long", []string{filler})},
			},
			Chains: map[uint16][]int{1: {0, 1}},
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if e.NumStates() != target {
			t.Fatalf("engine has %d states, want %d", e.NumStates(), target)
		}
		// One stream: IDS patterns around the filler (padded with a byte no
		// pattern contains, so the patterns after it sit where they do at
		// the other sizes), cut into packets inside the filler (resuming
		// from the automaton's deepest states, cold ones, the highest ids
		// among them) and inside IDS patterns.
		stream := head + filler + strings.Repeat("!", low+2-target) + tail
		atFiller, atTail := len(head), len(stream)-len(tail)
		cuts := []int{0, 150, 300 + len(ids[3])/2, atFiller + len(filler)/2, atFiller + len(filler) - 1,
			atTail + 2, len(stream)}
		items := make([]BatchItem, len(cuts)-1)
		for i := range items {
			items[i] = BatchItem{Tag: 1, Tuple: parallelFlowTuple(1), Payload: []byte(stream[cuts[i]:cuts[i+1]])}
		}
		e.InspectBatch(items, 1)
		ref, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gotIDS [][]rec
		foundFiller := false
		for i := range items {
			it := &items[i]
			want, err := ref.Inspect(it.Tag, it.Tuple, it.Payload)
			if err != nil || it.Err != nil {
				t.Fatal(err, it.Err)
			}
			if got, want := flatten(it.Report), flatten(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d states, packet %d: lanes report %v, Inspect %v", target, i, got, want)
			}
			var sec []rec
			for _, r := range flatten(it.Report) {
				if r.mbox == 0 {
					sec = append(sec, r)
				} else if i == 4 {
					// The filler ends in this packet, two packets after
					// the one it began in.
					foundFiller = r == rec{1, 0, uint16(atFiller + len(filler)), 1}
				}
			}
			gotIDS = append(gotIDS, sec)
		}
		if !foundFiller {
			t.Fatalf("%d states: the pattern spanning three packets was not reported at its stream position", target)
		}
		if wantIDS == nil {
			wantIDS = gotIDS
			if n := len(gotIDS[2]) + len(gotIDS[5]); n < 2 {
				t.Fatalf("the IDS patterns cut by packet boundaries were not reported: %v", gotIDS)
			}
		} else if !reflect.DeepEqual(gotIDS, wantIDS) {
			t.Fatalf("%d states: IDS sections %v, at %d states %v", target, gotIDS, low, wantIDS)
		}
	}
}

func randomLower(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// TestEngineAccountsForFoldAutomaton: the case-fold automaton built for
// nocase patterns is part of the engine's size and state count.
func TestEngineAccountsForFoldAutomaton(t *testing.T) {
	build := func(pats ...patterns.Pattern) *Engine {
		t.Helper()
		e, err := NewEngine(Config{
			Profiles: []Profile{{ID: 0, Name: "ids", Patterns: &patterns.Set{Name: "ids", Patterns: pats}}},
			Chains:   map[uint16][]int{1: {0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exact := build(patterns.Pattern{ID: 0, Content: "attack-sig"})
	both := build(patterns.Pattern{ID: 0, Content: "attack-sig"}, patterns.Pattern{ID: 1, Content: "SeLeCt", NoCase: true})
	foldOnly := build(patterns.Pattern{ID: 1, Content: "SeLeCt", NoCase: true})
	// "select" alone: a root and six states.
	if got, want := foldOnly.NumStates(), 7; got != want {
		t.Errorf("nocase-only engine reports %d states, want %d", got, want)
	}
	if foldOnly.MemoryBytes() == 0 {
		t.Error("nocase-only engine reports no memory")
	}
	if got, want := both.NumStates(), exact.NumStates()+foldOnly.NumStates(); got != want {
		t.Errorf("engine with a nocase pattern reports %d states, want %d", got, want)
	}
	if got, want := both.MemoryBytes(), exact.MemoryBytes()+foldOnly.MemoryBytes(); got != want {
		t.Errorf("engine with a nocase pattern reports %d bytes, want %d", got, want)
	}
	if got := both.Metrics().Gauge("core.memory_bytes").Value(); got != both.MemoryBytes() {
		t.Errorf("core.memory_bytes = %d, MemoryBytes %d", got, both.MemoryBytes())
	}
}
