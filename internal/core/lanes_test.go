package core

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dpiservice/internal/israce"
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
)

// laneConfig exercises every stage the lane scheduler wraps: chain 1 is
// stateful (a stateful IDS with a case-insensitive pattern and a regex,
// plus a stateless AV), chain 2 stateless.
func laneConfig() Config {
	ids := &patterns.Set{Name: "ids", Patterns: []patterns.Pattern{
		{ID: 0, Content: "attack-sig"},
		{ID: 1, Content: "/etc/passwd"},
		{ID: 2, Content: "evil"},
		{ID: 3, Content: "select union", NoCase: true},
	}, Regexes: []patterns.Regex{{ID: 0, Expr: `regular\s*expression\s*\d+`}}}
	return Config{
		Profiles: []Profile{
			{ID: 0, Name: "ids", Stateful: true, ReadOnly: true, Patterns: ids},
			{ID: 1, Name: "av", Patterns: patterns.FromStrings("av", []string{"malware-body", "evil"})},
		},
		Chains: map[uint16][]int{1: {0, 1}, 2: {1}},
	}
}

// laneCorpus draws n packets whose flows repeat at the distances the
// scheduler treats differently — adjacent, LaneWidth-1, LaneWidth+1 and
// more than a run apart — with ragged lengths including zero, whole
// plants, and patterns split across two consecutive packets of a flow
// (so only an in-order hand-over of the flow's state finds them).
func laneCorpus(seed int64, n int) []BatchItem {
	rng := rand.New(rand.NewSource(seed))
	plants := []string{"evil", "malware-body", "attack-sig", "/etc/passwd", "SeLeCt UnIoN", "regular expression 42"}
	gaps := []int{1, mpm.LaneWidth - 1, mpm.LaneWidth + 1, maxRun + 7}
	flowAt := make([]int, n) // flow of item i; 0 = not yet assigned
	nextFlow := 1
	carry := map[int]string{} // tail of a split pattern owed to the flow's next packet
	items := make([]BatchItem, n)
	for i := range items {
		if flowAt[i] == 0 {
			flowAt[i] = nextFlow
			nextFlow++
		}
		f := flowAt[i]
		if j := i + gaps[rng.Intn(len(gaps))]; j < n && flowAt[j] == 0 && rng.Intn(3) > 0 {
			flowAt[j] = f
		}
		size := rng.Intn(1500)
		switch rng.Intn(6) {
		case 0:
			size = 0
		case 1:
			size = rng.Intn(16)
		}
		body := make([]byte, size)
		for k := range body {
			body[k] = "abcdefghijklmnopqrstuvwxyz /-"[rng.Intn(29)]
		}
		payload := append([]byte(carry[f]), body...)
		delete(carry, f)
		switch p := plants[rng.Intn(len(plants))]; rng.Intn(4) {
		case 0: // whole
			payload = append(payload, p...)
		case 1: // split across this packet and the flow's next
			cut := 1 + rng.Intn(len(p)-1)
			payload = append(payload, p[:cut]...)
			carry[f] = p[cut:]
		}
		tag := uint16(1 + f%2) // a flow stays on one chain
		if rng.Intn(40) == 0 {
			tag = 999
		}
		items[i] = BatchItem{Tag: tag, Tuple: parallelFlowTuple(f), Payload: payload}
		if i%2 == 0 {
			items[i].Buf = new(packet.Report)
		}
	}
	return items
}

// flowOffset reads a flow's stream offset.
func flowOffset(e *Engine, tuple packet.FiveTuple) int64 {
	h := tuple.FastHash()
	sh := e.shards[h&e.shardMask]
	b := sh.bucket(h)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w := b.find(flowTag(h), tuple); w >= 0 {
		return b.ent[w].offset
	}
	return -1
}

// TestLaneSchedulerMatchesInspect is the scheduler's differential: a
// single-worker InspectBatch over mixed stateless and stateful chains
// gives every packet the report per-packet Inspect gives it in arrival
// order, and leaves every flow and counter where Inspect leaves them.
func TestLaneSchedulerMatchesInspect(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		e, err := NewEngine(laneConfig())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewEngine(laneConfig())
		if err != nil {
			t.Fatal(err)
		}
		items := laneCorpus(seed, 700)
		e.InspectBatch(items, 1)
		matched, crossed := 0, 0
		for i := range items {
			it := &items[i]
			want, err := ref.Inspect(it.Tag, it.Tuple, it.Payload)
			if it.Tag == 999 {
				if it.Err == nil || err == nil || it.Report != nil {
					t.Fatalf("seed %d item %d: unknown tag gave err %v, report %v", seed, i, it.Err, it.Report)
				}
				continue
			}
			if it.Err != nil || err != nil {
				t.Fatal(it.Err, err)
			}
			if got, want := flatten(it.Report), flatten(want); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d item %d (tag %d, %d bytes): report %v, Inspect gives %v", seed, i, it.Tag, len(it.Payload), got, want)
			}
			if it.Report != nil {
				matched++
				if it.Buf != nil && it.Report != it.Buf {
					t.Fatalf("seed %d item %d: report not handed over in the caller's Buf", seed, i)
				}
				for _, r := range flatten(it.Report) {
					if r.mbox == 0 && int(r.pos) > len(it.Payload) {
						crossed++ // stream position beyond this packet: state came from an earlier one
					}
				}
			}
		}
		if matched < 100 || crossed < 20 {
			t.Fatalf("seed %d: %d matched packets, %d beyond the first packet of a flow: the corpus exercises nothing", seed, matched, crossed)
		}
		for i := range items {
			if got, want := flowOffset(e, items[i].Tuple), flowOffset(ref, items[i].Tuple); got != want {
				t.Fatalf("seed %d flow of item %d: offset %d, Inspect leaves %d", seed, i, got, want)
			}
		}
		if got, want := e.Snapshot(), ref.Snapshot(); got != want {
			t.Fatalf("seed %d: counters %+v, Inspect leaves %+v", seed, got, want)
		}
	}
}

// TestLaneSchedulerSharedFlows runs the scheduler from several
// goroutines over the same stateful flows: two single-worker batches at
// once, then one four-worker batch with every flow repeated in it. Order
// across goroutines is not defined, so the checks are the ones order
// cannot move: the calls return, every flow's offset is the bytes
// presented to it, and the whole patterns (none straddles a packet) are
// each reported once.
func TestLaneSchedulerSharedFlows(t *testing.T) {
	e, err := NewEngine(laneConfig())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 24
	presented := make(map[packet.FiveTuple]int64)
	wantMatches := 0
	build := func(seed int64, n int) []BatchItem {
		rng := rand.New(rand.NewSource(seed))
		items := make([]BatchItem, n)
		for i := range items {
			payload := make([]byte, rng.Intn(900))
			for k := range payload {
				payload[k] = "abcdefghijklmnopqrstuvwxyz"[rng.Intn(26)]
			}
			if rng.Intn(3) == 0 {
				payload = append(payload, " attack-sig "...)
				wantMatches++
			}
			tuple := parallelFlowTuple(rng.Intn(flows))
			presented[tuple] += int64(len(payload))
			items[i] = BatchItem{Tag: 1, Tuple: tuple, Payload: payload}
		}
		return items
	}
	a, b, c := build(1, 300), build(2, 300), build(3, 600)

	var wg sync.WaitGroup
	for _, items := range [][]BatchItem{a, b} {
		wg.Add(1)
		go func(items []BatchItem) {
			defer wg.Done()
			for lo := 0; lo < len(items); lo += 13 {
				e.InspectBatch(items[lo:min(lo+13, len(items))], 1)
			}
		}(items)
	}
	wg.Wait()
	e.InspectBatch(c, 4)

	gotMatches := 0
	for _, items := range [][]BatchItem{a, b, c} {
		for i := range items {
			if items[i].Err != nil {
				t.Fatal(items[i].Err)
			}
			for _, r := range flatten(items[i].Report) {
				if r.mbox == 0 && r.pat == 0 {
					gotMatches += int(r.cnt)
				}
			}
		}
	}
	if gotMatches != wantMatches {
		t.Errorf("%d attack-sig matches reported, %d planted", gotMatches, wantMatches)
	}
	for tuple, want := range presented {
		if got := flowOffset(e, tuple); got != want {
			t.Errorf("flow %v: offset %d, %d bytes presented", tuple, got, want)
		}
	}
}

// TestBatchMatchedPathAllocFree pins the report hand-over: with
// caller-owned Buf storage a run in which every packet matches allocates
// nothing once the reports have grown.
func TestBatchMatchedPathAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops scratches under -race")
	}
	e, err := NewEngine(laneConfig())
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 13)
	bufs := make([]packet.Report, len(items))
	for i := range items {
		items[i] = BatchItem{Tag: uint16(1 + i%2), Tuple: parallelFlowTuple(i), Buf: &bufs[i],
			Payload: []byte("an evil payload with malware-body, attack-sig and /etc/passwd inside")}
	}
	run := func() {
		e.InspectBatch(items, 1)
		for i := range items {
			if items[i].Report != &bufs[i] || items[i].Report.Empty() {
				t.Fatalf("item %d: no report in its Buf", i)
			}
		}
	}
	for i := 0; i < 4; i++ {
		run() // grow the scratches' and the items' report storage
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("matched run allocated %v allocs, want 0", allocs)
	}
}

// TestInspectBatchMixedChains drives stateful and stateless chains plus
// unknown tags through the lane scheduler: same-flow stateful packets
// next to each other in one run must neither deadlock nor reorder,
// unknown tags must error per item, and every report must match a serial
// reference.
func TestInspectBatchMixedChains(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchItem
	for i := 0; i < 40; i++ {
		tag := uint16(1 + i%2) // chain 1 is stateful, chain 2 stateless
		if i%13 == 12 {
			tag = 999 // unknown
		}
		items = append(items, BatchItem{
			// One tuple per chain: every stateful packet finds its flow
			// checked out by the one two items ahead of it.
			Tag: tag, Tuple: parallelFlowTuple(int(tag)), Payload: []byte("an evil payload"),
		})
	}
	// Single worker so the stateful chain sees its packets in order and
	// the serial reference below is comparable.
	e.InspectBatch(items, 1)
	for i := range items {
		if items[i].Tag == 999 {
			if !errors.Is(items[i].Err, ErrUnknownChain) {
				t.Fatalf("item %d: err = %v, want unknown chain", i, items[i].Err)
			}
			continue
		}
		if items[i].Err != nil {
			t.Fatal(items[i].Err)
		}
		wantRep, err := ref.Inspect(items[i].Tag, items[i].Tuple, items[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flatten(items[i].Report), flatten(wantRep); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: report %v, want %v", i, got, want)
		}
	}
}
