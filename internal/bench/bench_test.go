package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dpiservice/internal/core"
	"dpiservice/internal/patterns"
)

var quick = Options{Quick: true, Seed: 5}

func TestFig8Quick(t *testing.T) {
	rows, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.StandaloneMbps <= 0 || r.OneVMMbps <= 0 || r.FourVMAvgMbps <= 0 {
			t.Errorf("non-positive throughput: %+v", r)
		}
	}
	// The paper's first finding: the pattern count has major impact.
	if rows[1].StandaloneMbps >= rows[0].StandaloneMbps {
		t.Logf("note: throughput did not drop with pattern count on tiny quick sets (%+v)", rows)
	}
}

func TestTable2Quick(t *testing.T) {
	rows, err := Table2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Patterns+rows[1].Patterns != rows[2].Patterns {
		t.Errorf("combined patterns %d != %d + %d", rows[2].Patterns, rows[0].Patterns, rows[1].Patterns)
	}
	// Space observation of Table 2: merged < sum of separates.
	if rows[2].SpaceMB >= rows[0].SpaceMB+rows[1].SpaceMB {
		t.Errorf("merged space %.1f not below %.1f + %.1f",
			rows[2].SpaceMB, rows[0].SpaceMB, rows[1].SpaceMB)
	}
	for _, r := range rows {
		if r.Mbps <= 0 {
			t.Errorf("no throughput: %+v", r)
		}
	}
}

func TestFig9aQuick(t *testing.T) {
	assertFig9(t, Fig9a)
	rows, err := Fig9a(quick)
	if err != nil {
		t.Fatal(err)
	}
	if s := FormatFig9(rows); !strings.Contains(s, "pipeline") {
		t.Errorf("FormatFig9 output %q", s)
	}
}

// timingTrials is how many times a throughput comparison is measured;
// it is asserted on the medians, so one trial that lost the CPU
// halfway cannot decide it.
const timingTrials = 5

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[len(s)/2]
}

func TestFig9bQuick(t *testing.T) { assertFig9(t, Fig9b) }

// assertFig9 checks the paper's headline result in shape at every point
// of a Figure 9 sweep: two virtual-DPI instances outrun the pipeline of
// two middleboxes, on the medians of timingTrials runs of the sweep.
func assertFig9(t *testing.T, fig func(Options) ([]Fig9Row, error)) {
	t.Helper()
	var virtual, pipeline [][]float64 // [row][trial]
	var totals []int
	for trial := 0; trial < timingTrials; trial++ {
		rows, err := fig(quick)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			virtual, pipeline = make([][]float64, len(rows)), make([][]float64, len(rows))
			for _, r := range rows {
				totals = append(totals, r.TotalPatterns)
			}
		}
		for i, r := range rows {
			virtual[i] = append(virtual[i], r.VirtualMbps)
			pipeline[i] = append(pipeline[i], r.PipelineMbps)
		}
	}
	for i, total := range totals {
		if v, p := median(virtual[i]), median(pipeline[i]); v <= p {
			t.Errorf("virtual DPI (%.0f) not faster than pipeline (%.0f) at %d patterns, medians of %d trials — "+
				"the paper's headline result must hold in shape", v, p, total, timingTrials)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	figs := []struct {
		name string
		fn   func(Options) (*Fig10Result, error)
	}{{"a", Fig10a}, {"b", Fig10b}}
	// Per figure, the trials of each quantity; a and b alternate.
	rectA, rectB, budget := make([][]float64, len(figs)), make([][]float64, len(figs)), make([][]float64, len(figs))
	for trial := 0; trial < timingTrials; trial++ {
		for i, f := range figs {
			res, err := f.fn(quick)
			if err != nil {
				t.Fatalf("%s: %v", f.name, err)
			}
			rectA[i] = append(rectA[i], res.RectAMbps)
			rectB[i] = append(rectB[i], res.RectBMbps)
			budget[i] = append(budget[i], res.TriangleBudget)
		}
	}
	for i, f := range figs {
		res := &Fig10Result{RectAMbps: median(rectA[i]), RectBMbps: median(rectB[i]), TriangleBudget: median(budget[i])}
		// The triangle must exceed at least the slower middlebox's
		// rectangle side: when the faster set's box is idle, the
		// slower traffic class can borrow its capacity (the paper's
		// ClamAV-above-the-rectangle observation).
		slower := min(res.RectAMbps, res.RectBMbps)
		if res.TriangleBudget <= slower {
			t.Errorf("%s: triangle budget %.0f does not exceed the slower side %.0f (medians of %d trials)",
				f.name, res.TriangleBudget, slower, timingTrials)
		}
		if res.BorrowablePctA() <= 0 && res.BorrowablePctB() <= 0 {
			t.Errorf("%s: nothing borrowable on either axis: %+v", f.name, res)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	res, err := Fig11(quick)
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets == 0 {
		t.Fatal("no packets")
	}
	// Section 6.5: more than 90% of packets have no matches.
	if res.PctNoMatch < 80 {
		t.Errorf("PctNoMatch = %.1f%%, expected the large majority clean", res.PctNoMatch)
	}
	if res.MeanBytes <= 0 || len(res.CDF) == 0 {
		t.Errorf("result = %+v", res)
	}
	// CDF is monotone and ends at 100%.
	last := 0.0
	for _, p := range res.CDF {
		if p.CumPct < last {
			t.Fatalf("CDF not monotone at %+v", p)
		}
		last = p.CumPct
	}
	if last < 99.99 {
		t.Errorf("CDF ends at %.2f%%", last)
	}
	if res.P50 > res.P90 || res.P90 > res.P99 {
		t.Errorf("percentiles disordered: %+v", res)
	}
}

func TestSlowdownQuick(t *testing.T) {
	res, err := Slowdown(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Scanning must cost more than consuming results; the paper
	// reports >= 2.9x for Snort. Quick sets are small, so just require
	// a clear win.
	if res.Factor < 2 {
		t.Errorf("slowdown factor = %.1f, expected scanning >> consuming", res.Factor)
	}
}

func TestParallelQuick(t *testing.T) {
	rows, err := ParallelScaling(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if rows[0].Workers != 1 || rows[0].Speedup != 1 {
		t.Errorf("first row must be the 1-worker baseline: %+v", rows[0])
	}
	for _, r := range rows {
		if r.Mbps <= 0 || r.Speedup <= 0 {
			t.Errorf("non-positive measurement: %+v", r)
		}
	}
	if s := FormatParallel(rows); !strings.Contains(s, "workers") {
		t.Errorf("FormatParallel output %q", s)
	}
	// No scaling assertion here: quick corpora are tiny and the test
	// host may have a single core. BenchmarkParallelInspect with
	// -cpu 1,2,4,8 is the scaling measurement.
}

func TestAblationMatchersQuick(t *testing.T) {
	rows, err := AblationMatchers(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Matcher != "ac-full" || rows[1].Matcher != "wu-manber" {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Mbps <= 0 || r.SpaceMB <= 0 {
			t.Errorf("no throughput or space: %+v", r)
		}
	}
}

func TestAblationBitmapQuick(t *testing.T) {
	rows, err := AblationBitmap(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	// More active sets must never yield fewer matches.
	for i := 1; i < len(rows); i++ {
		if rows[i].Matches < rows[i-1].Matches {
			t.Errorf("matches decreased with more active sets: %+v", rows)
		}
	}
}

func TestAblationEngineKindsQuick(t *testing.T) {
	rows, err := AblationEngineKinds(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].SpaceMB <= rows[1].SpaceMB {
		t.Errorf("rows = %+v", rows)
	}
}

func TestLanesQuick(t *testing.T) {
	results, err := Lanes(quick)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range results {
		names = append(names, r.Name)
	}
	if want := []string{"low", "adversarial", "coldwalk", "coldwalk-compact"}; !slices.Equal(names, want) {
		t.Fatalf("results %v, want %v", names, want)
	}
	for _, r := range results {
		if r.ThroughputMbps() <= 0 {
			t.Errorf("no throughput: %+v", r)
		}
	}
	// The attack mix is packed with pattern text.
	if low, adv := results[0], results[1]; adv.Matches <= low.Matches {
		t.Errorf("matches: adversarial %d <= low-match %d", adv.Matches, low.Matches)
	}
	// Both automaton kinds find the same matches in the cold walk.
	if full, lean := results[2], results[3]; full.Matches != lean.Matches || full.Matches == 0 {
		t.Errorf("cold walk: %d matches with the full automaton, %d with the lean one", full.Matches, lean.Matches)
	}
}

// TestMeasureEngineCountsOnlyItsOwnScan measures twice on one engine:
// the second result must not include the first's matches or packets.
func TestMeasureEngineCountsOnlyItsOwnScan(t *testing.T) {
	set := patterns.SnortLike(400, 5)
	e, tag, err := EngineFor(core.AutoFull, set)
	if err != nil {
		t.Fatal(err)
	}
	corpus := corpusFor(Options{Seed: 5, CorpusBytes: 64 << 10}, set)
	first := MeasureEngine("first", e, tag, corpus, benchFlows, 2, 1)
	second := MeasureEngine("second", e, tag, corpus, benchFlows, 2, 2)
	if first.Matches == 0 || second.Matches != first.Matches {
		t.Errorf("matches: first %d, second %d, want equal and nonzero", first.Matches, second.Matches)
	}
	for _, r := range []Result{first, second} {
		if got, _ := r.Metrics.Counter("core.packets"); got != uint64(r.Packets) {
			t.Errorf("%s: core.packets = %d, measured %d packets", r.Name, got, r.Packets)
		}
		if h, _ := r.Metrics.Histogram("core.scan_ns"); h.Count != uint64(r.Packets) {
			t.Errorf("%s: core.scan_ns count = %d, measured %d packets", r.Name, h.Count, r.Packets)
		}
	}
}

// TestMeasureEngineRunsMatchInspect is the measurement's fixture check:
// for a stateless and a stateful chain, every packet of the runs
// MeasureEngine scans gets the report a per-packet Inspect on a fresh
// engine gives it, and no item carries an error.
func TestMeasureEngineRunsMatchInspect(t *testing.T) {
	set := patterns.SnortLike(400, 5)
	corpus := corpusFor(Options{Seed: 5, CorpusBytes: 64 << 10}, set)
	for _, stateful := range []bool{false, true} {
		cfg := core.Config{
			Profiles: []core.Profile{{ID: 0, Name: "ids", Stateful: stateful, Patterns: set}},
			Chains:   map[uint16][]int{1: {0}},
		}
		measured, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var items []core.BatchItem
		r := measureRuns("fixture", measured, 1, corpus, 8, 1, func(its []core.BatchItem) {
			scanPass(measured, its, 1)
			items = its
		})
		matched := 0
		for i := range items {
			it := &items[i]
			if it.Err != nil {
				t.Fatalf("stateful=%v item %d: %v", stateful, i, it.Err)
			}
			want, err := ref.Inspect(1, it.Tuple, it.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if (want == nil) != (it.Report == nil) ||
				want != nil && !bytes.Equal(want.AppendEncoded(nil), it.Report.AppendEncoded(nil)) {
				t.Fatalf("stateful=%v item %d: run report %v, Inspect %v", stateful, i, it.Report, want)
			}
			if want != nil {
				matched++
			}
		}
		if matched == 0 || r.Matches != ref.Snapshot().Matches {
			t.Errorf("stateful=%v: %d matched packets, measured %d matches, Inspect %d",
				stateful, matched, r.Matches, ref.Snapshot().Matches)
		}
	}
}

func TestMeasureResultString(t *testing.T) {
	r := Result{Name: "x", Patterns: 10, MemBytes: 2e6, Bytes: 1e6, Elapsed: 1e9}
	if r.ThroughputMbps() != 8 {
		t.Errorf("ThroughputMbps = %f", r.ThroughputMbps())
	}
	if !strings.Contains(r.String(), "Mbps") {
		t.Errorf("String = %q", r.String())
	}
	if (Result{}).ThroughputMbps() != 0 {
		t.Error("zero-elapsed result has throughput")
	}
}
