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
	// Trials makes Collect keep the median-throughput of N runs per
	// record, damping machine noise for the CI regression gate;
	// default 1. The figure/table drivers ignore it.
	Trials int
	// Adversarial switches corpus construction to the attack mix:
	// payloads densely packed with pattern material, the DFA's worst
	// case — walks stay in deep states, so most bytes miss the cache in
	// the transition table, and nearly every packet carries a report.
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

// benchFlows is how many flow tuples the figure measurements rotate
// over.
const benchFlows = 64

// corpusFor builds the HTTP-mix corpus used across experiments, with a
// sub-10% match fraction drawn from the given pattern set (Section 6.5:
// over 90% of trace packets have no matches). With Options.Adversarial
// it builds the attack mix instead: payloads stitched from pattern
// fragments.
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

// EngineFor wraps pattern sets into a service instance with one chain
// (the returned tag) over one middlebox profile per set. A set larger
// than a profile's pattern-ID space (core.RegexReportBase) registers as
// several profiles of at most that many patterns, as a middlebox of
// that size must with the deployed instance; the merged automaton, and
// so the scan, is the same.
func EngineFor(kind core.AutomatonKind, sets ...*patterns.Set) (*core.Engine, uint16, error) {
	cfg := core.Config{Kind: kind, Chains: map[uint16][]int{1: {}}}
	for _, s := range sets {
		parts := []*patterns.Set{s}
		if n := len(s.Patterns); n > core.RegexReportBase {
			var err error
			if parts, err = patterns.Split(s, (n+core.RegexReportBase-1)/core.RegexReportBase, 1); err != nil {
				return nil, 0, err
			}
		}
		for _, part := range parts {
			id := len(cfg.Profiles)
			cfg.Profiles = append(cfg.Profiles, core.Profile{ID: id, Name: part.Name, Patterns: part})
			cfg.Chains[1] = append(cfg.Chains[1], id)
		}
	}
	e, err := core.NewEngine(cfg)
	return e, 1, err
}

// measureSplit runs the three measurements behind Table 2 and every
// Figure 9 and 10 point: one engine on setA, one on setB and one on the
// merged pair, each fed the same corpus (drawn from injectFrom) by
// MeasureEngine. Only one engine is alive at a time.
func measureSplit(o Options, setA, setB, injectFrom *patterns.Set) ([3]Result, error) {
	corpus := corpusFor(o, injectFrom)
	var res [3]Result
	for i, sets := range [][]*patterns.Set{{setA}, {setB}, {setA, setB}} {
		e, tag, err := EngineFor(core.AutoFull, sets...)
		if err != nil {
			return res, err
		}
		res[i] = MeasureEngine([]string{setA.Name, setB.Name, "combined"}[i], e, tag, corpus, benchFlows, o.Repeat, 1)
	}
	return res, nil
}

// --- Figure 8 --------------------------------------------------------

// Fig8Row is one point of Figure 8: scan throughput vs pattern count
// for a stand-alone process, a single virtualized instance, and the
// average of four instances each on its own core.
type Fig8Row struct {
	Patterns       int
	StandaloneMbps float64
	OneVMMbps      float64
	FourVMAvgMbps  float64
}

// Fig8 reproduces Figure 8 with one engine per pattern count.
// Virtualization is modeled as a queue hop into a separate scanning
// goroutine (the virtio-style indirection a VM adds); "four VMs" are
// measured as four sequential instances since the paper pins each VM
// to its own core (see EXPERIMENTS.md).
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
		e, tag, err := EngineFor(core.AutoFull, set)
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Patterns: n}
		row.StandaloneMbps = MeasureEngine("standalone", e, tag, corpus, benchFlows, o.Repeat, 1).ThroughputMbps()
		row.OneVMMbps = measureVM(e, tag, corpus, o.Repeat).ThroughputMbps()
		var sum float64
		for vm := 0; vm < 4; vm++ {
			sum += measureVM(e, tag, corpus, o.Repeat).ThroughputMbps()
		}
		row.FourVMAvgMbps = sum / 4
		rows = append(rows, row)
	}
	return rows, nil
}

// measureVM is MeasureEngine with one worker behind a channel hop: the
// runs cross a buffered channel into a scanning goroutine, modeling the
// per-packet indirection of a virtualized NIC path.
func measureVM(e *core.Engine, tag uint16, corpus [][]byte, repeat int) Result {
	in := make(chan []core.BatchItem, 64)
	done := make(chan struct{})
	go func() {
		for run := range in {
			if run == nil {
				done <- struct{}{}
				continue
			}
			e.InspectBatch(run, 1)
		}
	}()
	defer close(in)
	return measureRuns("vm", e, tag, corpus, benchFlows, repeat, func(items []core.BatchItem) {
		for lo := 0; lo < len(items); lo += ScanRun {
			in <- items[lo:min(lo+ScanRun, len(items))]
		}
		in <- nil // a pass ends once the scanner has drained it
		<-done
	})
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
	res, err := measureSplit(o, halves[0], halves[1], full)
	if err != nil {
		return nil, err
	}
	res[0].Name, res[1].Name, res[2].Name = "Snort1", "Snort2", "Snort1+Snort2"
	return res[:], nil
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
func Fig9a(o Options) ([]Fig9Row, error) { return fig9(o, false) }

// Fig9b reproduces Figure 9(b): the full Snort-like set as one
// middlebox and growing ClamAV-like sets as the other.
func Fig9b(o Options) ([]Fig9Row, error) { return fig9(o, true) }

func fig9(o Options, snortClam bool) ([]Fig9Row, error) {
	totals, results, err := fig9Points(o, snortClam)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for i, r := range results {
		rows = append(rows, Fig9Row{
			TotalPatterns: totals[i],
			// Pipeline: every packet crosses both boxes; the slower
			// one is the bottleneck.
			PipelineMbps: minMbps(r[0], r[1]),
			// Virtual DPI: the same two machines each run the merged
			// automaton and the load is split between them (Figure 2(b)).
			VirtualMbps: 2 * r[2].ThroughputMbps(),
		})
	}
	return rows, nil
}

// fig9Points measures every point of Figure 9(a), or of 9(b) with
// snortClam: each point's total pattern count and its measureSplit.
func fig9Points(o Options, snortClam bool) (totals []int, results [][3]Result, err error) {
	o.defaults()
	point := func(total int, setA, setB, injectFrom *patterns.Set) error {
		r, err := measureSplit(o, setA, setB, injectFrom)
		totals, results = append(totals, total), append(results, r)
		return err
	}
	if snortClam {
		snortN, clamCounts := patterns.SnortFullSize, []int{4356, 13000, 22000, patterns.ClamAVFullSize}
		if o.Quick {
			snortN, clamCounts = 300, []int{300, 600}
		}
		snort := patterns.SnortLike(snortN, o.Seed)
		for _, cn := range clamCounts {
			if err := point(snortN+cn, snort, patterns.ClamAVLike(cn, o.Seed), snort); err != nil {
				return nil, nil, err
			}
		}
		return totals, results, nil
	}
	snortTotals := []int{1089, 2178, 3267, patterns.SnortFullSize}
	if o.Quick {
		snortTotals = []int{200, 600}
	}
	for _, total := range snortTotals {
		full := patterns.SnortLike(total, o.Seed)
		halves, err := patterns.Split(full, 2, o.Seed)
		if err != nil {
			return nil, nil, err
		}
		if err := point(total, halves[0], halves[1], full); err != nil {
			return nil, nil, err
		}
	}
	return totals, results, nil
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
	snort := patterns.SnortLike(snortN, o.Seed)
	return fig10Point(o, snort, patterns.ClamAVLike(clamN, o.Seed+1), snort)
}

func fig10Point(o Options, setA, setB, injectFrom *patterns.Set) (*Fig10Result, error) {
	r, err := measureSplit(o, setA, setB, injectFrom)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{
		NameA: setA.Name, NameB: setB.Name,
		RectAMbps: r[0].ThroughputMbps(), RectBMbps: r[1].ThroughputMbps(),
		CombinedMbps:   r[2].ThroughputMbps(),
		TriangleBudget: 2 * r[2].ThroughputMbps(),
	}, nil
}

// --- Lanes: the deployed scan's common and worst case ----------------

// Lanes measures the deployed scan of the Snort-like set on the
// low-match HTTP mix ("low") and on the attack mix ("adversarial", see
// Options.Adversarial): the CI gate's common-case and worst-case rows.
// "coldwalk" is the worst case of the hot/cold table: a ClamAV-like set
// whose rows exceed the dense budget (2 000 patterns, 17 000 states,
// under -quick; 4 356 and 36 270 otherwise), walked by the attack mix
// stitched from the whole set, so the walks spend their bytes in cold
// states. "coldwalk-compact" is AutoCompact, the lean layout of
// MCA² dedicated instances, on the same set and corpus.
func Lanes(o Options) ([]Result, error) {
	o.defaults()
	total, clamTotal := patterns.SnortFullSize, patterns.SnortFullSize
	if o.Quick {
		total, clamTotal = 400, 2000
	}
	set := patterns.SnortLike(total, o.Seed)
	e, tag, err := EngineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}
	low, adv := o, o
	low.Adversarial, adv.Adversarial = false, true
	results := []Result{
		MeasureEngine("low", e, tag, corpusFor(low, set), benchFlows, o.Repeat, 1),
		MeasureEngine("adversarial", e, tag, corpusFor(adv, set), benchFlows, o.Repeat, 1),
	}
	clam := patterns.ClamAVLike(clamTotal, o.Seed+1)
	walk := traffic.NewGenerator(traffic.Config{
		Seed: o.Seed + 7, Mix: traffic.AttackMix, InjectPatterns: clam.Strings(),
	}).Corpus(o.CorpusBytes)
	for _, kind := range []struct {
		name string
		kind core.AutomatonKind
	}{{"coldwalk", core.AutoFull}, {"coldwalk-compact", core.AutoCompact}} {
		e, tag, err := EngineFor(kind.kind, clam)
		if err != nil {
			return nil, err
		}
		results = append(results, MeasureEngine(kind.name, e, tag, walk, benchFlows, o.Repeat, 1))
	}
	return results, nil
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
	e, tag, err := EngineFor(core.AutoFull, set)
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
// middleboxes parse each frame and forward it. The one with DPI scans
// the payload itself, as the deployed instance does (MeasureEngine);
// the one behind the service instead decodes the instance's result
// packet and counts the rules it names.
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
	eng, tag, err := EngineFor(core.AutoFull, set)
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

	// Middlebox WITH DPI: parse and forward, plus the scan.
	sink := make([]byte, 2048)
	var sum packet.Summary
	start := time.Now()
	for r := 0; r < o.Repeat; r++ {
		for _, f := range frames {
			if err := packet.Summarize(f, &sum); err != nil {
				return nil, err
			}
			copy(sink, f) // forward
		}
	}
	frameElapsed := time.Since(start)
	scan := MeasureEngine("scan", eng, tag, corpus, benchFlows, o.Repeat, 1)

	// Middlebox WITHOUT DPI: parse, decode the result, count, forward.
	var rep packet.Report
	var rules uint64
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
		ScanNsPerPkt:    float64(frameElapsed.Nanoseconds())/n + scan.NsPerOp(),
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

// AblationMatchers compares the full-table AC DFA with Wu-Manber on the
// same pattern set and corpus; AblationEngineKinds compares the full and
// lean layouts of the DFA, the space-time tradeoff behind the MCA²
// dedicated instances.
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
	wm, err := b.BuildWuManber()
	if err != nil {
		return nil, err
	}
	r := MeasureAutomaton("ac-full", full, corpus, o.Repeat)
	rows := []AblationMatcherRow{{"ac-full", r.ThroughputMbps(), float64(full.MemoryBytes()) / 1e6}}
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
		e, tag, err := EngineFor(tc.kind, set)
		if err != nil {
			return nil, err
		}
		r := MeasureEngine(tc.name, e, tag, corpus, benchFlows, o.Repeat, 1)
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
