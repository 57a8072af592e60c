package dpiservice

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (Section 6), plus the ablation benches listed in
// DESIGN.md. The cmd/dpibench binary runs the same experiments at the
// paper's full parameter ranges and prints tables; these benches are
// the quick, `go test -bench=.` entry point.

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"

	"dpiservice/internal/bench"
	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/regexengine"
	"dpiservice/internal/traffic"
)

const benchSeed = 1

// corpus builds a deterministic HTTP-mix corpus with a sub-10% match
// fraction drawn from set.
func benchCorpus(set *patterns.Set, totalBytes int) [][]byte {
	var inject []string
	if set != nil {
		all := set.Strings()
		for i := 0; i < len(all) && i < 64; i++ {
			inject = append(inject, all[i])
		}
	}
	g := traffic.NewGenerator(traffic.Config{
		Seed: benchSeed + 7, Mix: traffic.HTTPMix,
		MatchFraction: 0.08, InjectPatterns: inject,
	})
	return g.Corpus(totalBytes)
}

// newEngine is bench.EngineFor: one chain, tag 1, over one full-table
// profile per set.
func newEngine(b *testing.B, sets ...*patterns.Set) *core.Engine {
	b.Helper()
	e, _, err := bench.EngineFor(core.AutoFull, sets...)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchEngines scans b.N passes of the corpus through each engine in
// turn with bench.MeasureEngine — runs of bench.ScanRun packets through
// InspectBatch, the deployed instance's scan — so MB/s is the corpus
// rate of one core running all of them (one engine: a middlebox or the
// merged service; two: a pipeline scanning every packet twice).
func benchEngines(b *testing.B, corpus [][]byte, engines ...*core.Engine) {
	b.Helper()
	var total int64
	for _, p := range corpus {
		total += int64(len(p))
	}
	var mem int64
	for _, e := range engines {
		mem += e.MemoryBytes()
	}
	b.SetBytes(total)
	b.ReportMetric(float64(mem)/1e6, "MB")
	b.ResetTimer()
	for _, e := range engines {
		bench.MeasureEngine(b.Name(), e, 1, corpus, 64, b.N, 1)
	}
}

// BenchmarkFig8PatternCount is Figure 8's dominant effect: scan
// throughput versus the number of patterns. (The virtualization
// comparison, which needs wall-clock goroutine plumbing, lives in
// cmd/dpibench fig8.)
func BenchmarkFig8PatternCount(b *testing.B) {
	for _, n := range []int{500, 2000, 8000, patterns.ClamAVFullSize} {
		set := patterns.ClamAVLike(n, benchSeed)
		corpus := benchCorpus(set, 1<<20)
		e := newEngine(b, set)
		b.Run(name("patterns", n), func(b *testing.B) { benchEngines(b, corpus, e) })
	}
}

// BenchmarkTable2 measures the three configurations of Table 2:
// Snort1, Snort2, and the merged Snort1+Snort2 automaton.
func BenchmarkTable2(b *testing.B) {
	full := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	halves, err := patterns.Split(full, 2, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(full, 1<<20)
	for _, tc := range []struct {
		name string
		sets []*patterns.Set
	}{
		{"Snort1", halves[:1]},
		{"Snort2", halves[1:]},
		{"Snort1+Snort2", halves},
	} {
		e := newEngine(b, tc.sets...)
		b.Run(tc.name, func(b *testing.B) { benchEngines(b, corpus, e) })
	}
}

// BenchmarkFig9aPipelineVsVirtual measures the two architectures of
// Figure 9(a) at the full Snort-like scale: a pipeline of two separate
// middleboxes (every packet scanned twice — once per set) versus the
// merged virtual-DPI automaton (scanned once; two instances then double
// the aggregate, see EXPERIMENTS.md).
func BenchmarkFig9aPipelineVsVirtual(b *testing.B) {
	full := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	halves, err := patterns.Split(full, 2, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(full, 1<<20)
	e1, e2 := newEngine(b, halves[0]), newEngine(b, halves[1])
	comb := newEngine(b, halves[0], halves[1])
	b.Run("pipeline", func(b *testing.B) { benchEngines(b, corpus, e1, e2) })
	b.Run("virtual-combined", func(b *testing.B) { benchEngines(b, corpus, comb) })
}

// BenchmarkFig9bSnortPlusClamAV is Figure 9(b)'s heavyweight point:
// full Snort-like plus full ClamAV-like sets.
func BenchmarkFig9bSnortPlusClamAV(b *testing.B) {
	if testing.Short() {
		b.Skip("builds a ~36k-pattern full-table DFA")
	}
	snort := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	clam := patterns.ClamAVLike(patterns.ClamAVFullSize, benchSeed)
	corpus := benchCorpus(snort, 1<<20)
	eS, eC := newEngine(b, snort), newEngine(b, clam)
	comb := newEngine(b, snort, clam)
	b.Run("pipeline", func(b *testing.B) { benchEngines(b, corpus, eS, eC) })
	b.Run("virtual-combined", func(b *testing.B) { benchEngines(b, corpus, comb) })
}

// BenchmarkFig10Regions measures the three throughputs from which the
// Figure 10 regions are drawn: each dedicated box and the merged
// automaton (rectangle sides and triangle budget).
func BenchmarkFig10Regions(b *testing.B) {
	full := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	halves, err := patterns.Split(full, 2, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(full, 1<<20)
	for _, tc := range []struct {
		name string
		sets []*patterns.Set
	}{
		{"rect-sideA", halves[:1]},
		{"rect-sideB", halves[1:]},
		{"triangle-combined", halves},
	} {
		e := newEngine(b, tc.sets...)
		b.Run(tc.name, func(b *testing.B) { benchEngines(b, corpus, e) })
	}
}

// BenchmarkFig11ReportBuild measures the full instance path that
// produces Figure 11's reports: inspect, filter, coalesce, encode.
func BenchmarkFig11ReportBuild(b *testing.B) {
	set := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	cfg := core.Config{
		Profiles: []core.Profile{{ID: 0, Name: "ids", Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(set, 1<<20)
	tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}, DstPort: 80, Protocol: packet.IPProtoTCP}
	var total int64
	for _, p := range corpus {
		total += int64(len(p))
	}
	var encoded []byte
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range corpus {
			tuple.SrcPort = uint16(j)
			rep, err := e.Inspect(1, tuple, p)
			if err != nil {
				b.Fatal(err)
			}
			if rep != nil {
				encoded = rep.AppendEncoded(encoded[:0])
			}
		}
	}
}

// BenchmarkSlowdownScanVsConsume is the Section 1 footnote: the cost
// of a corpus pass scanned in the box (the deployed scan) versus one
// consumed from prebuilt results (decode and count).
func BenchmarkSlowdownScanVsConsume(b *testing.B) {
	set := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	corpus := benchCorpus(set, 1<<20)
	e := newEngine(b, set)
	tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}, DstPort: 80, Protocol: packet.IPProtoTCP}
	reports := make([][]byte, len(corpus))
	for j, p := range corpus {
		tuple.SrcPort = uint16(j)
		rep, err := e.Inspect(1, tuple, p)
		if err != nil {
			b.Fatal(err)
		}
		if rep != nil {
			reports[j] = rep.AppendEncoded(nil)
		}
	}
	b.Run("middlebox-with-dpi", func(b *testing.B) { benchEngines(b, corpus, e) })
	b.Run("middlebox-consuming-results", func(b *testing.B) {
		var rep packet.Report
		var rules uint64
		for i := 0; i < b.N; i++ {
			for _, enc := range reports {
				if enc == nil {
					continue
				}
				if _, err := packet.DecodeReport(enc, &rep); err != nil {
					b.Fatal(err)
				}
				if sec := rep.SectionFor(0); sec != nil {
					for _, en := range sec.Entries {
						rules += uint64(en.Count)
					}
				}
			}
		}
		_ = rules
	})
}

// BenchmarkAblationMatchers compares full-table AC with Wu-Manber, the
// stream matcher with the whole-buffer baseline.
func BenchmarkAblationMatchers(b *testing.B) {
	set := patterns.SnortLike(patterns.SnortFullSize, benchSeed)
	corpus := benchCorpus(set, 1<<20)
	bd := mpm.NewBuilder()
	if err := bd.AddSet(0, set.Strings()); err != nil {
		b.Fatal(err)
	}
	full, err := bd.BuildFull()
	if err != nil {
		b.Fatal(err)
	}
	wm, err := bd.BuildWuManber()
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, p := range corpus {
		total += int64(len(p))
	}
	b.Run("ac-full", func(b *testing.B) {
		b.SetBytes(total)
		bench.MeasureAutomaton("ac-full", full, corpus, b.N)
	})
	b.Run("wu-manber", func(b *testing.B) {
		emit := func(refs []mpm.PatternRef, end int) {}
		b.SetBytes(total)
		for i := 0; i < b.N; i++ {
			for _, p := range corpus {
				wm.Find(p, emit)
			}
		}
	})
}

// BenchmarkBuildFull is the instance's compile step: the merge of the
// registered pattern sets into one full-table automaton, paid before
// the first verdict on every instance start, failover and pattern
// update (Sections 4, 5.1). multi-tenant is the three literal sets of
// the benchmark module's workload of that name; multi-tenant/lean is
// their lean layout, the compile of an MCA² dedicated instance
// (Section 4.3.1) on every failover to one.
func BenchmarkBuildFull(b *testing.B) {
	multi := []*patterns.Set{patterns.SnortLike(2000, 1), patterns.ClamAVLike(2000, 3), patterns.SnortLike(2000, 2)}
	for _, bc := range []struct {
		name  string
		sets  []*patterns.Set
		build func(*mpm.Builder) (*mpm.ACFull, error)
	}{
		{"snort-2000", []*patterns.Set{patterns.SnortLike(2000, 1)}, (*mpm.Builder).BuildFull},
		{"multi-tenant", multi, (*mpm.Builder).BuildFull},
		{"multi-tenant/lean", multi, (*mpm.Builder).BuildLean},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bd := mpm.NewBuilder()
			for i, s := range bc.sets {
				if err := bd.AddSet(i, s.Strings()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bc.build(bd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBitmapFiltering scans an 8-set merged automaton with
// 1 vs 8 sets active: the per-state bitmap should make inactive sets
// nearly free.
func BenchmarkAblationBitmapFiltering(b *testing.B) {
	bd := mpm.NewBuilder()
	var first *patterns.Set
	for s := 0; s < 8; s++ {
		set := patterns.SnortLike(500, benchSeed+int64(s))
		if s == 0 {
			first = set
		}
		if err := bd.AddSet(s, set.Strings()); err != nil {
			b.Fatal(err)
		}
	}
	a, err := bd.BuildFull()
	if err != nil {
		b.Fatal(err)
	}
	corpus := benchCorpus(first, 1<<20)
	for _, k := range []int{1, 8} {
		var active uint64
		for s := 0; s < k; s++ {
			active |= mpm.SetBit(s)
		}
		b.Run(name("active", k), func(b *testing.B) {
			var total int64
			for _, p := range corpus {
				total += int64(len(p))
			}
			emit := func(refs []mpm.PatternRef, end int) {}
			b.SetBytes(total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state := a.Start()
				for _, p := range corpus {
					state = a.Scan(p, state, active, emit)
				}
			}
		})
	}
}

// BenchmarkEngineStatefulVsStateless isolates the cost of per-flow
// state maintenance in the instance path.
func BenchmarkEngineStatefulVsStateless(b *testing.B) {
	set := patterns.SnortLike(2000, benchSeed)
	corpus := benchCorpus(set, 1<<20)
	for _, stateful := range []bool{false, true} {
		nm := "stateless"
		if stateful {
			nm = "stateful"
		}
		e, err := core.NewEngine(core.Config{
			Profiles: []core.Profile{{ID: 0, Stateful: stateful, Patterns: set}},
			Chains:   map[uint16][]int{1: {0}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(nm, func(b *testing.B) { benchEngines(b, corpus, e) })
	}
}

// BenchmarkParallelInspect drives one sharded engine from b.RunParallel
// goroutines, each scanning its own flow population — the multi-core
// scaling of the data plane. Run with `-cpu 1,2,4,8` to sweep cores:
//
//	go test -bench BenchmarkParallelInspect -cpu 1,2,4,8 .
//
// Aggregate throughput (the ns/op and MB/s columns are per-parallel
// unit of work) should grow near-linearly until the core count exceeds
// the shard count.
func BenchmarkParallelInspect(b *testing.B) {
	set := patterns.SnortLike(2000, benchSeed)
	corpus := benchCorpus(set, 1<<20)
	cfg := core.Config{
		Profiles: []core.Profile{{ID: 0, Name: "ids", Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, p := range corpus {
		total += int64(len(p))
	}
	var nextWorker atomic.Int64
	b.SetBytes(total)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// A distinct source IP per goroutine keeps flow populations
		// disjoint, so goroutines contend only on shard locks.
		w := nextWorker.Add(1)
		tuple := packet.FiveTuple{
			Src:      packet.IP4{10, 1, byte(w >> 8), byte(w)},
			Dst:      packet.IP4{10, 0, 0, 2},
			DstPort:  80,
			Protocol: packet.IPProtoTCP,
		}
		for pb.Next() {
			for j, p := range corpus {
				tuple.SrcPort = uint16(j % 64)
				if _, err := e.Inspect(1, tuple, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkInspectBatch measures the batch entry point itself at
// GOMAXPROCS workers (compare against the workers=1 run for the
// speedup the dpibench `parallel` experiment tabulates).
func BenchmarkInspectBatch(b *testing.B) {
	set := patterns.SnortLike(2000, benchSeed)
	corpus := benchCorpus(set, 1<<20)
	cfg := core.Config{
		Profiles: []core.Profile{{ID: 0, Name: "ids", Patterns: set}},
		Chains:   map[uint16][]int{1: {0}},
	}
	e, err := core.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]core.BatchItem, len(corpus))
	var total int64
	for j, p := range corpus {
		items[j] = core.BatchItem{
			Tag: 1,
			Tuple: packet.FiveTuple{
				Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2},
				SrcPort: uint16(j % 64), DstPort: 80, Protocol: packet.IPProtoTCP,
			},
			Payload: p,
		}
		total += int64(len(p))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.InspectBatch(items, 0)
	}
	b.StopTimer()
	for i := range items {
		if items[i].Err != nil {
			b.Fatal(items[i].Err)
		}
	}
}

// BenchmarkScanLanes compares the DFA stage of a run of packets scanned
// one after another with the same run streamed through the lanes
// (mpm.ACFull.ScanLanes), on two corpora cut into runs of
// bench.ScanRun packets — what one receive batch hands the wire data
// plane: the HTTP mix of
// ragged lengths, whose walks stay near the root (cache-resident rows),
// and an attack mix of 1400-byte payloads packed with pattern text,
// whose walks stay in deep states (a row miss on most bytes).
func BenchmarkScanLanes(b *testing.B) {
	set := patterns.SnortLike(2000, benchSeed)
	bd := mpm.NewBuilder()
	if err := bd.AddSet(0, set.Strings()); err != nil {
		b.Fatal(err)
	}
	a, err := bd.BuildFull()
	if err != nil {
		b.Fatal(err)
	}
	attack := traffic.NewGenerator(traffic.Config{
		Seed: benchSeed + 7, Mix: traffic.AttackMix, InjectPatterns: set.Strings(),
		MinPayload: 1400, MaxPayload: 1400,
	}).Corpus(1 << 20)
	http := benchCorpus(set, 1<<20)
	emit := func(refs []mpm.PatternRef, end int) {}
	const run = bench.ScanRun
	for _, bc := range []struct {
		name   string
		corpus [][]byte
		scan   func(run []mpm.Lane)
	}{
		{"solo", http, soloLanes(a)},
		{"lanes", http, a.ScanLanes},
		{"attack-solo", attack, soloLanes(a)},
		{"attack-lanes", attack, a.ScanLanes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			lanes := make([]mpm.Lane, len(bc.corpus))
			var total int64
			for _, p := range bc.corpus {
				total += int64(len(p))
			}
			b.SetBytes(total)
			for i := 0; i < b.N; i++ {
				for j, p := range bc.corpus {
					lanes[j] = mpm.Lane{Data: p, State: a.Start(), Active: mpm.AllSets, Emit: emit}
				}
				for lo := 0; lo < len(lanes); lo += run {
					bc.scan(lanes[lo:min(lo+run, len(lanes))])
				}
			}
		})
	}
}

// soloLanes scans a run one lane after another with a.Scan.
func soloLanes(a *mpm.ACFull) func(run []mpm.Lane) {
	return func(run []mpm.Lane) {
		for i := range run {
			l := &run[i]
			l.State = a.Scan(l.Data, l.State, l.Active, l.Emit)
		}
	}
}

// BenchmarkReportEncodeDecode measures the wire codec of Section 6.5.
func BenchmarkReportEncodeDecode(b *testing.B) {
	var r packet.Report
	r.PacketID = 1
	for i := uint32(0); i < 8; i++ {
		r.AddMatch(uint8(i%3), uint16(i*7), 10+i*13)
	}
	enc := r.AppendEncoded(nil)
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = r.AppendEncoded(buf[:0])
		}
	})
	b.Run("decode", func(b *testing.B) {
		var dst packet.Report
		for i := 0; i < b.N; i++ {
			if _, err := packet.DecodeReport(enc, &dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func name(prefix string, n int) string {
	// Small helper: "patterns-500" style subbench names.
	return prefix + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkFlowTable measures the flow table as the wire data plane
// drives it: InspectBatch(items, 1) over runs of 64 packets of 64-byte
// payloads on a stateful 2000-rule IDS with the default 65 536-entry
// table, so flow lookup, admission and eviction are most of the
// per-packet work. The rows differ only in the flow population:
//
//   - hot-64: 64 flows in turn, every lookup a cache-resident hit;
//   - no-evict: a Zipf(1.1, v=4096) draw over 16 384 flows, a cold table
//     that never fills;
//   - evict-131072: the same draw over 131 072 flows (the benchmark
//     module's small-pkt shape), which evicts steadily.
//
// It reports ns/pkt, allocs/pkt and miss% (flow-table misses per packet
// after a warm-up of 400 000 packets).
func BenchmarkFlowTable(b *testing.B) {
	set := patterns.SnortLike(2000, benchSeed)
	g := traffic.NewGenerator(traffic.Config{
		Seed: benchSeed + 7, Mix: traffic.HTTPMix, MatchFraction: 0.02,
		InjectPatterns: set.Strings(), MinPayload: 64, MaxPayload: 64,
	})
	payloads := make([][]byte, 8192)
	for i := range payloads {
		payloads[i] = g.Payload()
	}
	const seqLen, run, warm = 1 << 20, 64, 400000
	for _, row := range []struct {
		name  string
		flows uint64 // 0: round-robin over 64 flows
	}{
		{"hot-64", 0},
		{"no-evict", 1 << 14},
		{"evict-131072", 1 << 17},
	} {
		b.Run(row.name, func(b *testing.B) {
			e, err := core.NewEngine(core.Config{
				Profiles: []core.Profile{{ID: 0, Name: "ids", Stateful: true, Patterns: set}},
				Chains:   map[uint16][]int{1: {0}},
			})
			if err != nil {
				b.Fatal(err)
			}
			seq := make([]uint32, seqLen)
			z := rand.NewZipf(rand.New(rand.NewSource(benchSeed)), 1.1, 4096, max(row.flows, 1)-1)
			for i := range seq {
				seq[i] = uint32(i % 64)
				if row.flows != 0 {
					seq[i] = uint32(z.Uint64())
				}
			}
			var (
				items [run]core.BatchItem
				bufs  [run]packet.Report
			)
			pos := 0
			batch := func() {
				for k := range items {
					f := seq[pos%seqLen]
					items[k] = core.BatchItem{
						Tag: 1,
						Tuple: packet.FiveTuple{
							Src: packet.IP4{10, byte(f >> 16), byte(f >> 8), byte(f)}, Dst: packet.IP4{192, 168, 0, 1},
							SrcPort: uint16(1024 + f%60000), DstPort: 80, Protocol: packet.IPProtoTCP,
						},
						Payload: payloads[pos%len(payloads)],
						Buf:     &bufs[k],
					}
					pos++
				}
				e.InspectBatch(items[:], 1)
			}
			for pos < warm {
				batch()
			}
			reg := e.Metrics()
			hits, misses := reg.Counter("core.flow_hits"), reg.Counter("core.flow_misses")
			h0, m0 := hits.Value(), misses.Value()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			allocs0 := ms.Mallocs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch()
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			pkts := float64(b.N * run)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pkts, "ns/pkt")
			b.ReportMetric(float64(ms.Mallocs-allocs0)/pkts, "allocs/pkt")
			b.ReportMetric(100*float64(misses.Value()-m0)/float64(hits.Value()-h0+misses.Value()-m0), "miss%")
		})
	}
}

// multiTenantRules is the firewall of the benchmark module's
// multi-tenant workload: 32 anchored URL regexes.
func multiTenantRules() []ctlproto.PatternDef {
	var fw []ctlproto.PatternDef
	for _, p := range []string{"/admin/", "/cgi-bin/", "/scripts/", "/wp-content/", "/phpmyadmin/", "/manager/", "/console/", "/backup/"} {
		for _, q := range []string{"cmd", "exec", "file", "path"} {
			fw = append(fw, ctlproto.PatternDef{RuleID: len(fw), Regex: p + `[a-z0-9]{2,12}\.(php|asp|cgi)\?` + q + `=[a-z/.]{1,24}`})
		}
	}
	return fw
}

// multiTenantController is an in-process controller holding the
// benchmark module's multi-tenant configuration: two stateful IDSs and
// an antivirus on the literal sets, the firewall on multiTenantRules,
// and two chains, {ids-1, av-1} and {ids-2, fw-1}.
func multiTenantController(b *testing.B) *controller.Controller {
	b.Helper()
	ctl := controller.New()
	literal := func(s *patterns.Set) []ctlproto.PatternDef {
		defs := make([]ctlproto.PatternDef, len(s.Patterns))
		for i, p := range s.Patterns {
			defs[i] = ctlproto.PatternDef{RuleID: p.ID, Content: []byte(p.Content)}
		}
		return defs
	}
	for _, m := range []struct {
		id       string
		stateful bool
		defs     []ctlproto.PatternDef
	}{
		{"ids-1", true, literal(patterns.SnortLike(2000, 1))},
		{"av-1", false, literal(patterns.ClamAVLike(2000, 3))},
		{"ids-2", true, literal(patterns.SnortLike(2000, 2))},
		{"fw-1", false, multiTenantRules()},
	} {
		if _, err := ctl.Register(ctlproto.Register{MboxID: m.id, Name: m.id, Type: m.id, Stateful: m.stateful}); err != nil {
			b.Fatal(err)
		}
		if err := ctl.AddPatterns(m.id, m.defs); err != nil {
			b.Fatal(err)
		}
	}
	for _, ch := range [][]string{{"ids-1", "av-1"}, {"ids-2", "fw-1"}} {
		if _, err := ctl.DefineChain(ch); err != nil {
			b.Fatal(err)
		}
	}
	return ctl
}

// BenchmarkNewEngine is the compile an instance runs between its
// configuration and its first verdict (Section 5.1), on the
// multi-tenant configuration as the instance receives it
// (InstanceInitMsg, ConfigFromInit). engine is the whole of
// core.NewEngine; the others are its parts: regex compiles the
// firewall's 32 expressions, flow-table is an engine of one pattern
// (the flow table and registry every engine allocates), and the merged
// literal automaton is BenchmarkBuildFull/multi-tenant, split into the
// trie and the rows by internal/mpm's BenchmarkBuildPhases.
func BenchmarkNewEngine(b *testing.B) {
	init, err := multiTenantController(b).InstanceInitMsg("dpi-1", nil, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		b.Fatal(err)
	}
	one := core.Config{
		Profiles: []core.Profile{{ID: 0, Name: "one", Patterns: &patterns.Set{Patterns: []patterns.Pattern{{ID: 0, Content: "one"}}}}},
		Chains:   map[uint16][]int{1: {0}},
	}
	rules := multiTenantRules()
	for _, bc := range []struct {
		name string
		run  func() error
	}{
		{"engine", func() error { _, err := core.NewEngine(cfg); return err }},
		{"regex", func() error {
			rx := regexengine.New(0)
			for _, r := range rules {
				if _, err := rx.Add(r.RuleID, r.Regex); err != nil {
					return err
				}
			}
			return nil
		}},
		{"flow-table", func() error { _, err := core.NewEngine(one); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInstanceInit is the hello RPC an instance waits for before it
// can compile (Sections 4.1, 5.1): the controller renders and encodes
// the multi-tenant configuration, the instance reads and decodes it and
// rebuilds the engine configuration (ConfigFromInit), over loopback TCP
// to an in-process controller. warm repeats the hello at one
// configuration version; cold changes the configuration before each
// hello, as a pattern update does.
func BenchmarkInstanceInit(b *testing.B) {
	ctl := multiTenantController(b)
	fw := multiTenantRules()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := controller.Serve(ctl, ln, nil)
	defer srv.Close()
	cl, err := controller.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	for _, bc := range []struct {
		name string
		cold bool
	}{{"warm", false}, {"cold", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.cold {
					// Re-adding a rule moves the version: the next hello renders afresh.
					if err := ctl.AddPatterns("fw-1", fw[:1]); err != nil {
						b.Fatal(err)
					}
				}
				init, err := cl.InstanceHello(context.Background(), "dpi-1", nil, false)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := controller.ConfigFromInit(init); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
