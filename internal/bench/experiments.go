package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

// Options scale the experiments. The zero value reproduces the paper's
// full parameter ranges; Quick selects a configuration small enough for
// unit tests.
type Options struct {
	Seed        int64
	CorpusBytes int  // payload bytes per measurement; default 4 MiB
	Repeat      int  // corpus passes per measurement; default 1
	Quick       bool // shrink pattern counts and corpus for tests
	// Trials makes Collect keep the best (highest-throughput) of N runs
	// per record, damping scheduler and GC noise for the CI regression
	// gate; default 1. The figure/table drivers ignore it.
	Trials int
	// Adversarial switches corpus construction to the attack mix:
	// payloads densely packed with pattern material, the worst case for
	// the prefilter (near-100% candidate rate, constant confirm work).
	Adversarial bool
}

func (o *Options) defaults() {
	if o.CorpusBytes <= 0 {
		// Quick shrinks the corpus only when the caller did not size it
		// explicitly; an explicit -corpus always wins.
		if o.Quick {
			o.CorpusBytes = 256 << 10
		} else {
			o.CorpusBytes = 4 << 20
		}
	}
	if o.Repeat <= 0 {
		o.Repeat = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// corpusFor builds the HTTP-mix corpus used across experiments, with a
// sub-10% match fraction drawn from the given pattern set (Section 6.5:
// over 90% of trace packets have no matches). With Options.Adversarial
// it builds the attack mix instead: payloads stitched from pattern
// fragments, so nearly every prefilter window flags.
func corpusFor(o Options, set *patterns.Set) [][]byte {
	var inject []string
	if set != nil {
		all := set.Strings()
		// A small sample of the set keeps injection realistic.
		for i := 0; i < len(all) && i < 64; i += 1 {
			inject = append(inject, all[i])
		}
	}
	mix := traffic.HTTPMix
	if o.Adversarial {
		mix = traffic.AttackMix
	}
	g := traffic.NewGenerator(traffic.Config{
		Seed: o.Seed + 7, Mix: mix,
		MatchFraction: 0.08, InjectPatterns: inject,
	})
	return g.Corpus(o.CorpusBytes)
}

// buildFull builds a full-table automaton over one set.
func buildFull(set *patterns.Set) (*mpm.ACFull, error) {
	b := mpm.NewBuilder()
	if err := b.AddSet(0, set.Strings()); err != nil {
		return nil, err
	}
	return b.BuildFull()
}

// buildCombined builds a full-table automaton over several sets.
func buildCombined(sets ...*patterns.Set) (*mpm.ACFull, error) {
	b := mpm.NewBuilder()
	for i, s := range sets {
		if err := b.AddSet(i, s.Strings()); err != nil {
			return nil, err
		}
	}
	return b.BuildFull()
}

// buildPrefiltered builds a two-stage prefiltered automaton over several
// sets. BuildPrefiltered never fails on pattern shape — unsuitable sets
// compile in fallback mode and scan like plain AC.
func buildPrefiltered(sets ...*patterns.Set) (*mpm.PrefilteredAC, error) {
	b := mpm.NewBuilder()
	for i, s := range sets {
		if err := b.AddSet(i, s.Strings()); err != nil {
			return nil, err
		}
	}
	return b.BuildPrefiltered()
}

// engineFor wraps pattern sets into a one-chain service instance.
func engineFor(kind core.AutomatonKind, sets ...*patterns.Set) (*core.Engine, uint16, error) {
	cfg := core.Config{Kind: kind, Chains: map[uint16][]int{1: {}}}
	for i, s := range sets {
		cfg.Profiles = append(cfg.Profiles, core.Profile{ID: i, Name: s.Name, Patterns: s})
		cfg.Chains[1] = append(cfg.Chains[1], i)
	}
	e, err := core.NewEngine(cfg)
	return e, 1, err
}

// --- Figure 8 --------------------------------------------------------

// Fig8Row is one point of Figure 8: AC throughput vs pattern count for
// a stand-alone process, a single virtualized instance, and the average
// of four instances each on its own core.
type Fig8Row struct {
	Patterns       int
	StandaloneMbps float64
	OneVMMbps      float64
	FourVMAvgMbps  float64
}

// Fig8 reproduces Figure 8. Virtualization is modeled as a queue hop
// into a separate scanning goroutine (the virtio-style indirection a VM
// adds); "four VMs" are measured as four sequential instances since the
// paper pins each VM to its own core (see EXPERIMENTS.md).
func Fig8(o Options) ([]Fig8Row, error) {
	o.defaults()
	counts := []int{500, 1000, 2000, 4000, 8000, 16000, patterns.ClamAVFullSize}
	if o.Quick {
		counts = []int{100, 400}
	}
	var rows []Fig8Row
	for _, n := range counts {
		set := patterns.ClamAVLike(n, o.Seed)
		corpus := corpusFor(o, set)
		a, err := buildFull(set)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Patterns: n}
		row.StandaloneMbps = MeasureAutomaton("standalone", a, corpus, o.Repeat).ThroughputMbps()
		row.OneVMMbps = measureVM(a, corpus, o.Repeat).ThroughputMbps()
		var sum float64
		for vm := 0; vm < 4; vm++ {
			sum += measureVM(a, corpus, o.Repeat).ThroughputMbps()
		}
		row.FourVMAvgMbps = sum / 4
		rows = append(rows, row)
	}
	return rows, nil
}

// measureVM scans the corpus through a channel-fed goroutine,
// modeling the per-packet indirection of a virtualized NIC path.
func measureVM(a mpm.Automaton, corpus [][]byte, repeat int) Result {
	r := Result{Name: "vm", Patterns: a.NumPatterns(), MemBytes: a.MemoryBytes()}
	in := make(chan []byte, 64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		state := a.Start()
		emit := func(refs []mpm.PatternRef, end int) {}
		for p := range in {
			state = a.Scan(p, state, mpm.AllSets, emit)
		}
	}()
	start := time.Now()
	for i := 0; i < repeat; i++ {
		for _, p := range corpus {
			in <- p
			r.Bytes += int64(len(p))
		}
	}
	close(in)
	<-done
	r.Elapsed = time.Since(start)
	return r
}

// --- Table 2 ---------------------------------------------------------

// Table2Row is one row of Table 2.
type Table2Row struct {
	Sets     string
	Patterns int
	SpaceMB  float64
	Mbps     float64
}

// table2Results measures the three Table 2 configurations and returns
// the raw results (Table2 condenses them into the paper's rows).
func table2Results(o Options) ([]Result, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 600
	}
	full := patterns.SnortLike(total, o.Seed)
	halves, err := patterns.Split(full, 2, o.Seed)
	if err != nil {
		return nil, err
	}
	corpus := corpusFor(o, full)

	var results []Result
	for _, tc := range []struct {
		name string
		sets []*patterns.Set
	}{
		{"Snort1", halves[:1]},
		{"Snort2", halves[1:]},
		{"Snort1+Snort2", halves},
	} {
		a, err := buildCombined(tc.sets...)
		if err != nil {
			return nil, err
		}
		results = append(results, MeasureAutomaton(tc.name, a, corpus, o.Repeat))
	}
	return results, nil
}

// Table2 reproduces Table 2: Snort split into Snort1/Snort2, measured
// separately and merged.
func Table2(o Options) ([]Table2Row, error) {
	results, err := table2Results(o)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for _, res := range results {
		rows = append(rows, Table2Row{
			Sets:     res.Name,
			Patterns: res.Patterns,
			SpaceMB:  float64(res.MemBytes) / 1e6,
			Mbps:     res.ThroughputMbps(),
		})
	}
	return rows, nil
}

// --- Figure 9 --------------------------------------------------------

// Fig9Row is one point of Figure 9: total pattern count vs the
// sustainable throughput of two pipelined middleboxes and of two
// virtual-DPI instances sharing the merged automaton.
type Fig9Row struct {
	TotalPatterns int
	PipelineMbps  float64 // two separate middleboxes in sequence
	VirtualMbps   float64 // two combined-DPI instances, load split
}

// Fig9a reproduces Figure 9(a): Snort-like patterns split into two
// middlebox sets, swept by total pattern count.
func Fig9a(o Options) ([]Fig9Row, error) {
	o.defaults()
	totals := []int{1089, 2178, 3267, patterns.SnortFullSize}
	if o.Quick {
		totals = []int{200, 600}
	}
	var rows []Fig9Row
	for _, total := range totals {
		full := patterns.SnortLike(total, o.Seed)
		halves, err := patterns.Split(full, 2, o.Seed)
		if err != nil {
			return nil, err
		}
		row, err := fig9Point(o, total, halves[0], halves[1], full)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// Fig9b reproduces Figure 9(b): the full Snort-like set as one
// middlebox and growing ClamAV-like sets as the other.
func Fig9b(o Options) ([]Fig9Row, error) {
	o.defaults()
	snortN, clamCounts := patterns.SnortFullSize, []int{4356, 13000, 22000, patterns.ClamAVFullSize}
	if o.Quick {
		snortN, clamCounts = 300, []int{300, 600}
	}
	snort := patterns.SnortLike(snortN, o.Seed)
	var rows []Fig9Row
	for _, cn := range clamCounts {
		clam := patterns.ClamAVLike(cn, o.Seed)
		row, err := fig9Point(o, snortN+cn, snort, clam, snort)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

// fig9Measure runs the three underlying measurements of one Figure 9
// point: each half separately and the merged automaton. All three run
// the two-stage matcher (prefilter + exact confirm), mpm.PrefilteredAC;
// sets whose patterns are unsuitable compile in fallback mode and
// measure as plain AC.
func fig9Measure(o Options, setA, setB, injectFrom *patterns.Set) (rA, rB, rC Result, err error) {
	corpus := corpusFor(o, injectFrom)
	aA, err := buildPrefiltered(setA)
	if err != nil {
		return rA, rB, rC, err
	}
	aB, err := buildPrefiltered(setB)
	if err != nil {
		return rA, rB, rC, err
	}
	comb, err := buildPrefiltered(setA, setB)
	if err != nil {
		return rA, rB, rC, err
	}
	rA = MeasureAutomaton(setA.Name, aA, corpus, o.Repeat)
	rB = MeasureAutomaton(setB.Name, aB, corpus, o.Repeat)
	rC = MeasureAutomaton("combined", comb, corpus, o.Repeat)
	return rA, rB, rC, nil
}

func fig9Point(o Options, total int, setA, setB, injectFrom *patterns.Set) (*Fig9Row, error) {
	rA, rB, rC, err := fig9Measure(o, setA, setB, injectFrom)
	if err != nil {
		return nil, err
	}
	return &Fig9Row{
		TotalPatterns: total,
		// Pipeline: every packet crosses both boxes; the slower one is
		// the bottleneck.
		PipelineMbps: minMbps(rA, rB),
		// Virtual DPI: the same two machines each run the merged
		// automaton and the load is split between them (Figure 2(b)).
		VirtualMbps: 2 * rC.ThroughputMbps(),
	}, nil
}

// --- Figure 10 -------------------------------------------------------

// Fig10Result summarizes one achievable-throughput region comparison:
// the rectangle of two dedicated middleboxes versus the triangle of two
// virtual-DPI machines (Figure 10).
type Fig10Result struct {
	NameA, NameB   string
	RectAMbps      float64 // max traffic-A throughput, dedicated box A
	RectBMbps      float64 // max traffic-B throughput, dedicated box B
	CombinedMbps   float64 // merged-automaton throughput of one machine
	TriangleBudget float64 // x + y <= TriangleBudget (= 2 * combined)
}

// BorrowablePctA reports how far traffic A can exceed its dedicated
// box's capacity when B is idle; negative means the triangle does not
// reach A's rectangle side there. The paper's Figure 10(b) example is
// the slower middlebox (ClamAV) exceeding 100% of its original
// capacity while the other is under-utilized.
func (f Fig10Result) BorrowablePctA() float64 { return borrowPct(f.TriangleBudget, f.RectAMbps) }

// BorrowablePctB is BorrowablePctA for the other axis.
func (f Fig10Result) BorrowablePctB() float64 { return borrowPct(f.TriangleBudget, f.RectBMbps) }

func borrowPct(budget, side float64) float64 {
	if side == 0 {
		return 0
	}
	return (budget - side) / side * 100
}

// Fig10a reproduces Figure 10(a) (Snort1 vs Snort2).
func Fig10a(o Options) (*Fig10Result, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 600
	}
	full := patterns.SnortLike(total, o.Seed)
	halves, err := patterns.Split(full, 2, o.Seed)
	if err != nil {
		return nil, err
	}
	return fig10Point(o, halves[0], halves[1], full)
}

// Fig10b reproduces Figure 10(b) (full Snort vs ClamAV).
func Fig10b(o Options) (*Fig10Result, error) {
	o.defaults()
	snortN, clamN := patterns.SnortFullSize, patterns.ClamAVFullSize
	if o.Quick {
		snortN, clamN = 300, 600
	}
	return fig10Point(o, patterns.SnortLike(snortN, o.Seed), patterns.ClamAVLike(clamN, o.Seed+1), nil)
}

func fig10Point(o Options, setA, setB, injectFrom *patterns.Set) (*Fig10Result, error) {
	if injectFrom == nil {
		injectFrom = setA
	}
	corpus := corpusFor(o, injectFrom)
	aA, err := buildFull(setA)
	if err != nil {
		return nil, err
	}
	aB, err := buildFull(setB)
	if err != nil {
		return nil, err
	}
	comb, err := buildCombined(setA, setB)
	if err != nil {
		return nil, err
	}
	rA := MeasureAutomaton(setA.Name, aA, corpus, o.Repeat)
	rB := MeasureAutomaton(setB.Name, aB, corpus, o.Repeat)
	rC := MeasureAutomaton("combined", comb, corpus, o.Repeat)
	return &Fig10Result{
		NameA: setA.Name, NameB: setB.Name,
		RectAMbps: rA.ThroughputMbps(), RectBMbps: rB.ThroughputMbps(),
		CombinedMbps:   rC.ThroughputMbps(),
		TriangleBudget: 2 * rC.ThroughputMbps(),
	}, nil
}

// --- Figure 11 -------------------------------------------------------

// Fig11Result is the match-report size analysis of Section 6.5.
type Fig11Result struct {
	Packets       int
	PctNoMatch    float64
	MeanBytes     float64
	P50, P90, P99 int
	// CDF maps a report size to the cumulative percentage of
	// non-empty reports at or below it, sampled at each distinct size.
	CDF []CDFPoint
}

// CDFPoint is one Figure 11 curve sample.
type CDFPoint struct {
	SizeBytes int
	CumPct    float64
}

// Fig11 reproduces Figure 11: the distribution of non-empty match
// report sizes over campus-like traffic.
func Fig11(o Options) (*Fig11Result, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 600
	}
	set := patterns.SnortLike(total, o.Seed)
	// A repeated-character rule exercises the 6-byte range reports of
	// Section 6.5 ("when a pattern consists of the same character ...
	// multiple matches of the same pattern should be reported").
	runPattern := "AAAAAAAA"
	set.Patterns = append(set.Patterns, patterns.Pattern{ID: len(set.Patterns), Content: runPattern})
	e, tag, err := engineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}
	inject := append([]string{}, set.Strings()[:64]...)
	// Occasional long runs of the repeated character coalesce into
	// range entries.
	inject = append(inject, strings.Repeat("A", 40), strings.Repeat("A", 120))
	g := traffic.NewGenerator(traffic.Config{
		Seed: o.Seed + 3, Mix: traffic.CampusMix,
		MatchFraction: 0.08, InjectPatterns: inject,
		// Trace packets that match at all typically hit several rules
		// (HTTP headers intersect many IDS patterns).
		InjectBurstMean: 5,
	})
	corpus := g.Corpus(o.CorpusBytes)

	tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}, DstPort: 80, Protocol: packet.IPProtoTCP}
	var sizes []int
	res := &Fig11Result{}
	for i, p := range corpus {
		tuple.SrcPort = uint16(i)
		rep, err := e.Inspect(tag, tuple, p)
		if err != nil {
			return nil, err
		}
		res.Packets++
		if rep != nil {
			sizes = append(sizes, rep.EncodedLen())
		}
	}
	if res.Packets == 0 {
		return res, nil
	}
	res.PctNoMatch = float64(res.Packets-len(sizes)) / float64(res.Packets) * 100
	if len(sizes) == 0 {
		return res, nil
	}
	sort.Ints(sizes)
	var sum int
	for _, s := range sizes {
		sum += s
	}
	res.MeanBytes = float64(sum) / float64(len(sizes))
	res.P50 = sizes[len(sizes)*50/100]
	res.P90 = sizes[len(sizes)*90/100]
	res.P99 = sizes[len(sizes)*99/100]
	for i, s := range sizes {
		if i == len(sizes)-1 || sizes[i+1] != s {
			res.CDF = append(res.CDF, CDFPoint{SizeBytes: s, CumPct: float64(i+1) / float64(len(sizes)) * 100})
		}
	}
	return res, nil
}

// --- Section 1 footnote: DPI slowdown -------------------------------

// SlowdownResult quantifies the paper's opening observation that DPI
// slows middlebox packet processing by a factor of at least 2.9. Both
// paths perform the middlebox's whole per-packet job — frame parsing,
// rule counting and forwarding — and differ only in where the pattern
// information comes from: an in-box scan versus the DPI service's
// result packet.
type SlowdownResult struct {
	ScanNsPerPkt    float64
	ConsumeNsPerPkt float64
	Factor          float64
}

// Slowdown measures the slowdown factor using full Ethernet frames.
func Slowdown(o Options) (*SlowdownResult, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 600
	}
	set := patterns.SnortLike(total, o.Seed)
	corpus := corpusFor(o, set)

	// Build the data frames once, plus the result frames the DPI
	// service would have produced for them.
	eng, tag, err := engineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}
	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2}, DstPort: 80, Protocol: packet.IPProtoTCP}
	frames := make([][]byte, len(corpus))
	reports := make([][]byte, len(corpus))
	for i, p := range corpus {
		tuple.SrcPort = uint16(i % 64)
		frames[i] = fb.Build(tuple, p)
		rep, err := eng.Inspect(tag, tuple, p)
		if err != nil {
			return nil, err
		}
		if rep != nil {
			reports[i] = rep.AppendEncoded(nil)
		}
	}

	// Middlebox WITH DPI: parse, scan, count, forward.
	eng2, tag2, err := engineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}
	sink := make([]byte, 2048)
	var sum packet.Summary
	var rules uint64
	start := time.Now()
	for r := 0; r < o.Repeat; r++ {
		for _, f := range frames {
			if err := packet.Summarize(f, &sum); err != nil {
				return nil, err
			}
			rep, err := eng2.Inspect(tag2, sum.Tuple, sum.Payload)
			if err != nil {
				return nil, err
			}
			if rep != nil {
				if sec := rep.SectionFor(0); sec != nil {
					for _, e := range sec.Entries {
						rules += uint64(e.Count)
					}
				}
			}
			copy(sink, f) // forward
		}
	}
	scanElapsed := time.Since(start)

	// Middlebox WITHOUT DPI: parse, decode the result, count, forward.
	var rep packet.Report
	start = time.Now()
	for r := 0; r < o.Repeat; r++ {
		for i, f := range frames {
			if err := packet.Summarize(f, &sum); err != nil {
				return nil, err
			}
			if enc := reports[i]; enc != nil {
				if _, err := packet.DecodeReport(enc, &rep); err != nil {
					return nil, err
				}
				if sec := rep.SectionFor(0); sec != nil {
					for _, e := range sec.Entries {
						rules += uint64(e.Count)
					}
				}
			}
			copy(sink, f) // forward
		}
	}
	consumeElapsed := time.Since(start)
	_ = rules

	n := float64(o.Repeat * len(frames))
	res := &SlowdownResult{
		ScanNsPerPkt:    float64(scanElapsed.Nanoseconds()) / n,
		ConsumeNsPerPkt: float64(consumeElapsed.Nanoseconds()) / n,
	}
	if res.ConsumeNsPerPkt > 0 {
		res.Factor = res.ScanNsPerPkt / res.ConsumeNsPerPkt
	}
	return res, nil
}

// --- Ablations -------------------------------------------------------

// AblationMatcherRow compares the matcher representations on one set.
type AblationMatcherRow struct {
	Matcher string
	Mbps    float64
	SpaceMB float64
}

// AblationMatchers compares full-table AC, compact AC and Wu-Manber on
// the same pattern set and corpus — the space-time tradeoff behind the
// MCA² dedicated instances.
func AblationMatchers(o Options) ([]AblationMatcherRow, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 400
	}
	set := patterns.SnortLike(total, o.Seed)
	corpus := corpusFor(o, set)
	b := mpm.NewBuilder()
	if err := b.AddSet(0, set.Strings()); err != nil {
		return nil, err
	}
	full, err := b.BuildFull()
	if err != nil {
		return nil, err
	}
	compact, err := b.BuildCompact()
	if err != nil {
		return nil, err
	}
	wm, err := b.BuildWuManber()
	if err != nil {
		return nil, err
	}
	var rows []AblationMatcherRow
	for _, tc := range []struct {
		name string
		a    mpm.Automaton
	}{{"ac-full", full}, {"ac-compact", compact}} {
		r := MeasureAutomaton(tc.name, tc.a, corpus, o.Repeat)
		rows = append(rows, AblationMatcherRow{tc.name, r.ThroughputMbps(), float64(tc.a.MemoryBytes()) / 1e6})
	}
	// Wu-Manber is a whole-buffer matcher; measure Find.
	start := time.Now()
	var bytes int64
	emit := func(refs []mpm.PatternRef, end int) {}
	for i := 0; i < o.Repeat; i++ {
		for _, p := range corpus {
			wm.Find(p, emit)
			bytes += int64(len(p))
		}
	}
	el := time.Since(start)
	rows = append(rows, AblationMatcherRow{
		"wu-manber",
		float64(bytes) * 8 / 1e6 / el.Seconds(),
		float64(wm.MemoryBytes()) / 1e6,
	})
	return rows, nil
}

// AblationBitmapRow measures the per-state bitmap filter: scanning a
// merged automaton of k sets with only one set active should cost about
// the same as with all active, because irrelevant accepting states are
// dismissed with one AND.
type AblationBitmapRow struct {
	ActiveSets int
	Mbps       float64
	Matches    uint64
}

// AblationBitmap sweeps the number of active sets on an 8-set merged
// automaton.
func AblationBitmap(o Options) ([]AblationBitmapRow, error) {
	o.defaults()
	perSet := 500
	if o.Quick {
		perSet = 60
	}
	b := mpm.NewBuilder()
	var first *patterns.Set
	for s := 0; s < 8; s++ {
		set := patterns.SnortLike(perSet, o.Seed+int64(s))
		if s == 0 {
			first = set
		}
		if err := b.AddSet(s, set.Strings()); err != nil {
			return nil, err
		}
	}
	a, err := b.BuildFull()
	if err != nil {
		return nil, err
	}
	corpus := corpusFor(o, first)
	var rows []AblationBitmapRow
	for _, k := range []int{1, 2, 4, 8} {
		var active uint64
		for s := 0; s < k; s++ {
			active |= mpm.SetBit(s)
		}
		var matches uint64
		actMask := active
		emit := func(refs []mpm.PatternRef, end int) {
			for _, r := range refs {
				if actMask&(1<<uint(r.Set)) != 0 {
					matches++
				}
			}
		}
		start := time.Now()
		var bytes int64
		state := a.Start()
		for i := 0; i < o.Repeat; i++ {
			for _, p := range corpus {
				state = a.Scan(p, state, active, emit)
				bytes += int64(len(p))
			}
		}
		el := time.Since(start)
		rows = append(rows, AblationBitmapRow{
			ActiveSets: k,
			Mbps:       float64(bytes) * 8 / 1e6 / el.Seconds(),
			Matches:    matches,
		})
	}
	return rows, nil
}

// AblationKindRow compares full service instances on the two automaton
// representations — what a regular versus an MCA² dedicated instance
// runs.
type AblationKindRow struct {
	Kind    string
	Mbps    float64
	SpaceMB float64
}

// AblationEngineKinds measures instance-level throughput per kind.
func AblationEngineKinds(o Options) ([]AblationKindRow, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 400
	}
	set := patterns.SnortLike(total, o.Seed)
	corpus := corpusFor(o, set)
	var rows []AblationKindRow
	for _, tc := range []struct {
		name string
		kind core.AutomatonKind
	}{{"full", core.AutoFull}, {"compact", core.AutoCompact}} {
		e, tag, err := engineFor(tc.kind, set)
		if err != nil {
			return nil, err
		}
		r := MeasureEngine(tc.name, e, tag, corpus, 64, o.Repeat)
		rows = append(rows, AblationKindRow{tc.name, r.ThroughputMbps(), float64(e.MemoryBytes()) / 1e6})
	}
	return rows, nil
}

// String helpers for the harness binary.

// FormatFig9 renders Figure 9 rows.
func FormatFig9(rows []Fig9Row) string {
	out := fmt.Sprintf("%14s %22s %22s %8s\n", "patterns", "pipeline [Mbps]", "virtual DPI [Mbps]", "gain")
	for _, r := range rows {
		gain := 0.0
		if r.PipelineMbps > 0 {
			gain = (r.VirtualMbps/r.PipelineMbps - 1) * 100
		}
		out += fmt.Sprintf("%14d %22.0f %22.0f %+7.0f%%\n", r.TotalPatterns, r.PipelineMbps, r.VirtualMbps, gain)
	}
	return out
}
