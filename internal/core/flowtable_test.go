package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"dpiservice/internal/israce"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// TestFlowEntryLayout pins the table's memory shape: a 48-byte entry and
// a bucket of one header line plus eight entries, a whole number of
// cache lines.
func TestFlowEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowEntry{}); got != 48 {
		t.Errorf("flowEntry is %d bytes, want 48", got)
	}
	if got := unsafe.Sizeof(flowBucket{}); got != 64+flowWays*48 {
		t.Errorf("flowBucket is %d bytes, want %d", got, 64+flowWays*48)
	}
	if off := unsafe.Offsetof(flowBucket{}.ent); off != 64 {
		t.Errorf("flowBucket header is %d bytes, want one 64-byte line", off)
	}
}

// flowTuple is flow i of the table tests' populations.
func flowTuple(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.IP4{10, byte(i >> 16), byte(i >> 8), byte(i)}, Dst: packet.IP4{10, 0, 0, 2},
		SrcPort: uint16(1024 + i%60000), DstPort: 80, Protocol: packet.IPProtoTCP,
	}
}

// bucketFlows returns n distinct tuples that hash to the same bucket of
// a one-shard engine, the way to fill one bucket on purpose.
func bucketFlows(e *Engine, n int) []packet.FiveTuple {
	sh := e.shards[0]
	var want *flowBucket
	var out []packet.FiveTuple
	for i := 0; len(out) < n; i++ {
		tu := flowTuple(i)
		b := sh.bucket(tu.FastHash())
		if want == nil {
			want = b
		}
		if b == want {
			out = append(out, tu)
		}
	}
	return out
}

// TestFlowEvictionDeterministic feeds two engines the same packet
// sequence over a table far smaller than the flow population: the
// victims, in order, and the eviction count are the same, because the
// victim is a function of the lookup sequence alone.
func TestFlowEvictionDeterministic(t *testing.T) {
	run := func() ([][2]uint64, uint64) {
		cfg := twoBoxConfig()
		cfg.MaxFlows = 64
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fl := trace.NewFlight("test", 1<<14)
		e.SetFlight(fl)
		rng := rand.New(rand.NewSource(5))
		items := make([]BatchItem, 64)
		for round := 0; round < 40; round++ {
			for i := range items {
				items[i] = BatchItem{Tag: uint16(1 + rng.Intn(2)), Tuple: flowTuple(rng.Intn(500)), Payload: []byte("an evil packet")}
			}
			e.InspectBatch(items, 1)
			if _, err := e.Inspect(1, flowTuple(rng.Intn(500)), []byte("attack")); err != nil {
				t.Fatal(err)
			}
		}
		evs := fl.Snapshot()
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		var victims [][2]uint64
		for _, ev := range evs {
			if ev.Kind == trace.EvFlowEvict {
				victims = append(victims, [2]uint64{ev.A, ev.B})
			}
		}
		return victims, e.Snapshot().FlowsEvicted
	}
	v1, n1 := run()
	v2, n2 := run()
	if n1 == 0 || uint64(len(v1)) != n1 {
		t.Fatalf("evicted %d flows, recorded %d", n1, len(v1))
	}
	if n1 != n2 || !reflect.DeepEqual(v1, v2) {
		t.Fatalf("eviction differs between identical runs: %d vs %d evictions", n1, n2)
	}
}

// TestFlowCheckoutNeverEvicted holds eight stateful flows checked out —
// every way of the one bucket, as eight lanes would — and admits a
// ninth flow to that bucket: it is scanned from the start state without
// being stored and counted, nothing is evicted, and the held flows'
// state survives check-in.
func TestFlowCheckoutNeverEvicted(t *testing.T) {
	cfg := twoBoxConfig()
	cfg.Shards, cfg.MaxFlows = 1, 8
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := bucketFlows(e, 9)
	held := make([]*scratch, 8)
	for i := range held {
		held[i] = e.scratchPool.Get().(*scratch)
		if !e.prepare(e.chains[1], flows[i], []byte("xx ev"), held[i]) {
			t.Fatalf("flow %d: prepare refused a fresh flow", i)
		}
	}
	// A second packet of a held flow waits for its check-in.
	s := e.scratchPool.Get().(*scratch)
	if e.prepare(e.chains[1], flows[0], []byte("il"), s) {
		t.Fatal("prepare checked out a flow that is already checked out")
	}
	rep, err := e.Inspect(1, flows[8], []byte("an evil ninth flow"))
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rep); len(got) != 2 {
		t.Fatalf("ninth flow, scanned from the start state: report %+v", rep)
	}
	reg := e.Metrics()
	if got := reg.Counter("core.flows_unstored").Value(); got != 1 {
		t.Errorf("core.flows_unstored = %d, want 1", got)
	}
	if got := e.Snapshot().FlowsEvicted; got != 0 {
		t.Errorf("evicted %d flows while every way was checked out", got)
	}
	if off := flowOffset(e, flows[8]); off != -1 {
		t.Errorf("ninth flow stored with offset %d", off)
	}
	for _, h := range held {
		e.walk(h)
		if rep := e.finish(h, nil); rep != nil {
			t.Fatalf("first half of a split pattern reported %+v", rep)
		}
		e.scratchPool.Put(h)
	}
	for i := range 8 {
		if off := flowOffset(e, flows[i]); off != 5 {
			t.Errorf("flow %d: offset %d after check-in, want 5", i, off)
		}
	}
	// The held state carries the split "ev|il" across the check-in.
	rep, err = e.Inspect(1, flows[3], []byte("il"))
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(rep); !reflect.DeepEqual(got, []rec{{0, 2, 7, 1}}) {
		t.Errorf("split match after check-in = %v, want the stateful set's evil at 7", got)
	}
}

// TestFlowTelemetryNotInherited starts a stateless scan, lets its flow
// be evicted and its way taken by another flow before the scan
// finishes, and checks the packet is charged to no one else.
func TestFlowTelemetryNotInherited(t *testing.T) {
	cfg := twoBoxConfig()
	cfg.Shards, cfg.MaxFlows = 1, 8
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows := bucketFlows(e, 9)
	s := e.scratchPool.Get().(*scratch)
	if !e.prepare(e.chains[2], flows[0], []byte("evil evil"), s) {
		t.Fatal("prepare refused a stateless scan")
	}
	for _, f := range flows[1:] { // the eighth newcomer evicts flows[0]
		if _, err := e.Inspect(2, f, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	e.walk(s)
	if rep := e.finish(s, nil); rep == nil {
		t.Fatal("stateless scan lost its report")
	}
	for _, f := range e.FlowStats() {
		if f.Tuple == flows[0] || f.Bytes != 1 || f.Matches != 0 {
			t.Errorf("flow %v: %d bytes, %d matches; want only its own 1 byte", f.Tuple, f.Bytes, f.Matches)
		}
	}
}

// TestFlowTableUnderPressure runs 1 000 flows through a 16-entry table
// on a stateful chain and checks the lane scheduler leaves every report
// where per-packet Inspect on a second engine does. The payloads share
// one length, so the lanes advance a whole group at a time and a flow
// in flight is always among its bucket's most recently used: check-outs
// never change a victim, and the two engines evict alike.
func TestFlowTableUnderPressure(t *testing.T) {
	cfg := twoBoxConfig()
	cfg.Shards, cfg.MaxFlows = 1, 16
	batch, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pieces := []string{"attack-sig", "attack-", "-sig", "evil ", "ev", "il", "/etc/pa", "sswd"}
	items := make([]BatchItem, 6000)
	for i := range items {
		f := rng.Intn(1000)
		if rng.Intn(2) == 0 {
			f = rng.Intn(12) // a hot set that stays resident
		}
		p := []byte(fmt.Sprintf("%-12s", pieces[rng.Intn(len(pieces))]))
		if rng.Intn(2) == 0 {
			p = []byte(fmt.Sprintf("%12s", pieces[rng.Intn(len(pieces))]))
		}
		items[i] = BatchItem{Tag: 1, Tuple: flowTuple(f), Payload: p}
	}
	for lo := 0; lo < len(items); lo += 200 {
		batch.InspectBatch(items[lo:lo+200], 1)
	}
	matched := 0
	for i := range items {
		it := &items[i]
		want, err := ref.Inspect(it.Tag, it.Tuple, it.Payload)
		if err != nil || it.Err != nil {
			t.Fatal(err, it.Err)
		}
		if !reflect.DeepEqual(it.Report, want) {
			t.Fatalf("item %d (%q): batch %+v, per-packet %+v", i, it.Payload, it.Report, want)
		}
		if want != nil {
			matched++
		}
	}
	if matched == 0 {
		t.Fatal("corpus produced no matches")
	}
	if batch.Snapshot() != ref.Snapshot() {
		t.Errorf("counters differ: batch %+v, per-packet %+v", batch.Snapshot(), ref.Snapshot())
	}
	for _, e := range []*Engine{batch, ref} {
		if n := e.ActiveFlows(); n > cfg.MaxFlows {
			t.Errorf("ActiveFlows = %d > MaxFlows %d", n, cfg.MaxFlows)
		}
	}
	if batch.Snapshot().FlowsEvicted == 0 {
		t.Error("no evictions under pressure")
	}
}

// TestFlowLifecycle checks EndFlow on a flow that is checked out — the
// scan's check-in then stores nothing and the next packet starts over —
// and that the table's capacity holds at its boundary: one full bucket
// takes exactly its eight ways, and the default 65 536-entry table never
// tracks more than that, every flow it could not keep accounted for as
// an eviction.
func TestFlowLifecycle(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := e.scratchPool.Get().(*scratch)
	if !e.prepare(e.chains[1], testTuple, []byte("ev"), s) {
		t.Fatal("prepare refused a fresh flow")
	}
	e.EndFlow(testTuple)
	if n := e.ActiveFlows(); n != 0 {
		t.Fatalf("ActiveFlows = %d after EndFlow", n)
	}
	e.walk(s)
	e.finish(s, nil)
	if off := flowOffset(e, testTuple); off != -1 {
		t.Fatalf("check-in after EndFlow stored the flow at offset %d", off)
	}
	rep, err := e.Inspect(1, testTuple, []byte("il"))
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Errorf("re-admitted flow resumed old state: %+v", rep)
	}
	if off := flowOffset(e, testTuple); off != 2 {
		t.Errorf("re-admitted flow offset = %d, want 2", off)
	}

	cfg := twoBoxConfig()
	cfg.Shards, cfg.MaxFlows = 1, 8
	small, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range bucketFlows(small, 9) {
		if _, err := small.Inspect(1, f, []byte("x")); err != nil {
			t.Fatal(err)
		}
		wantActive, wantEvicted := min(i+1, 8), uint64(max(i-7, 0))
		if n, ev := small.ActiveFlows(), small.Snapshot().FlowsEvicted; n != wantActive || ev != wantEvicted {
			t.Fatalf("after %d flows: %d active, %d evicted; want %d, %d", i+1, n, ev, wantActive, wantEvicted)
		}
	}

	if testing.Short() {
		return
	}
	big, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range 65537 {
		if _, err := big.Inspect(2, flowTuple(i), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if n := i + 1; n == 65536 || n == 65537 {
			active, ev := big.ActiveFlows(), big.Snapshot().FlowsEvicted
			if active > 65536 || uint64(active)+ev != uint64(n) {
				t.Errorf("after %d flows: %d active + %d evicted", n, active, ev)
			}
			if g := big.Metrics().Gauge("core.flows_active").Value(); g != int64(active) {
				t.Errorf("core.flows_active = %d, ActiveFlows = %d", g, active)
			}
		}
	}
}

// TestFlowTableAllocFree proves admission, eviction and hits allocate
// nothing: every packet below is a new flow evicting an old one from a
// full 16-entry table, followed by a hit.
func TestFlowTableAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops scratches under -race")
	}
	cfg := twoBoxConfig()
	cfg.Shards, cfg.MaxFlows = 1, 16
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("nothing to see")
	next := 0
	step := func() {
		tu := flowTuple(next)
		next++
		for range 2 {
			if _, err := e.Inspect(1, tu, payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	for range 64 {
		step()
	}
	ev := e.Snapshot().FlowsEvicted
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("admit + evict + hit: %.2f allocs, want 0", allocs)
	}
	if e.Snapshot().FlowsEvicted-ev < 1000 {
		t.Error("the measured packets did not evict")
	}
}

// TestHeavyFlowsFilters checks the heavy-flow export: from a table of
// 65 536 flows it returns exactly the ten dense ones, densest first, and
// allocates in proportion to them rather than to the table.
func TestHeavyFlowsFilters(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 65 536-flow table")
	}
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range 65536 - 10 {
		if _, err := e.Inspect(2, flowTuple(100+i), []byte("clean payload")); err != nil {
			t.Fatal(err)
		}
	}
	// Admitted last, so the heavy flows are their buckets' most recent.
	var heavy []packet.FiveTuple
	for i := range 10 {
		tu := flowTuple(100000 + i)
		heavy = append(heavy, tu)
		payload := []byte("evil " + string(make([]byte, 10*i)))
		if _, err := e.Inspect(2, tu, payload); err != nil {
			t.Fatal(err)
		}
	}
	got := e.HeavyFlows(16, 0.01)
	if len(got) != 10 {
		t.Fatalf("HeavyFlows returned %d flows, want 10", len(got))
	}
	for i, f := range got { // densest first: the shortest payload
		if f.Tuple != heavy[i] || f.Matches != 1 {
			t.Errorf("HeavyFlows[%d] = %+v, want %v with 1 match", i, f, heavy[i])
		}
	}
	if top := e.HeavyFlows(3, 0); len(top) != 3 || top[2].Tuple != heavy[2] {
		t.Errorf("HeavyFlows(3, 0) = %+v", top)
	}
	if allocs := testing.AllocsPerRun(5, func() { e.HeavyFlows(16, 0.01) }); allocs > 10 {
		t.Errorf("HeavyFlows: %.0f allocs for 10 heavy flows", allocs)
	}
}
