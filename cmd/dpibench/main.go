// Command dpibench regenerates every table and figure of the paper's
// evaluation (Section 6) at full parameter ranges and prints them in
// the paper's layout. See EXPERIMENTS.md for paper-vs-measured values.
//
// Usage:
//
//	dpibench [flags] <experiment> [experiment ...]
//
// Experiments: fig8, table2, fig9a, fig9b, fig10a, fig10b, fig11,
// slowdown, parallel, lanes, ablations, all. Every paper figure
// measures the scan the deployed instance runs: one engine per
// middlebox set or merged set, fed runs of bench.ScanRun packets
// through Engine.InspectBatch. The -adversarial flag switches corpus
// construction to the attack mix (the DFA's worst case); the lanes
// experiment measures both corpora at once.
//
// With -json, the raw measurements of the record-collectable
// experiments (table2, fig9a, fig9b, parallel, lanes) are written as a
// BENCH_*.json report (schema dpibench/v1: experiment, pattern count,
// packets, ns/op, MB/s, Mbps, allocs/op, matches, and what the engine's
// metrics recorded during each measurement). With -baseline, throughput
// is compared against an earlier report and the process exits nonzero
// when any record regressed by more than -regress percent, or when no
// record of the two reports matches — the CI benchmark gate.
package main

import (
	"flag"
	"fmt"
	"os"

	"dpiservice/internal/bench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "small pattern sets and corpus (seconds instead of minutes)")
		corpus   = flag.Int("corpus", 0, "corpus size in bytes per measurement (default 4 MiB)")
		repeat   = flag.Int("repeat", 0, "corpus passes per measurement (default 1)")
		seed     = flag.Int64("seed", 1, "generator seed")
		trials   = flag.Int("trials", 1, "median of `N` runs per record in collection mode (damps machine noise)")
		jsonOut  = flag.String("json", "", "write a BENCH_*.json report of the collectable experiments to this `file`")
		baseline = flag.String("baseline", "", "compare throughput against this BENCH_*.json `file`; exit 1 on a regression or when no record matches")
		regress  = flag.Float64("regress", 15, "regression threshold in `percent` for -baseline")
		advers   = flag.Bool("adversarial", false, "use the attack-mix corpus (the DFA's worst case) for all experiments")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dpibench [flags] <fig8|table2|fig9a|fig9b|fig10a|fig10b|fig11|slowdown|parallel|lanes|ablations|all> ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	opt := bench.Options{Quick: *quick, CorpusBytes: *corpus, Repeat: *repeat, Seed: *seed, Trials: *trials, Adversarial: *advers}

	exps := map[string]func(bench.Options) error{
		"fig8":      runFig8,
		"table2":    runTable2,
		"fig9a":     runFig9a,
		"fig9b":     runFig9b,
		"fig10a":    runFig10a,
		"fig10b":    runFig10b,
		"fig11":     runFig11,
		"slowdown":  runSlowdown,
		"parallel":  runParallel,
		"lanes":     runLanes,
		"ablations": runAblations,
	}
	var names []string
	for _, name := range flag.Args() {
		if name == "all" {
			names = append(names, "slowdown", "fig8", "parallel", "table2", "fig9a", "fig9b", "fig10a", "fig10b", "fig11", "lanes", "ablations")
			continue
		}
		names = append(names, name)
	}
	collectable := map[string]bool{}
	for _, name := range bench.CollectableExperiments() {
		collectable[name] = true
	}
	collecting := *jsonOut != "" || *baseline != ""

	var toCollect []string
	for _, name := range names {
		fn, ok := exps[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "dpibench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		// In collection mode the collectable experiments run once
		// through Collect (below) instead of the pretty printer, so the
		// measurements in the report are the ones actually taken.
		if collecting && collectable[name] {
			toCollect = append(toCollect, name)
			continue
		}
		if err := fn(opt); err != nil {
			fmt.Fprintf(os.Stderr, "dpibench %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if !collecting {
		return
	}
	if len(toCollect) == 0 {
		fmt.Fprintf(os.Stderr, "dpibench: -json/-baseline need at least one collectable experiment (%v)\n",
			bench.CollectableExperiments())
		os.Exit(2)
	}
	rep, err := bench.Collect(toCollect, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpibench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("== Benchmark records (%v) ==\n", toCollect)
	fmt.Printf("%-10s %-24s %10s %12s %12s %12s\n", "experiment", "name", "patterns", "ns/op", "MB/s", "Mbps")
	for _, r := range rep.Records {
		fmt.Printf("%-10s %-24s %10d %12.0f %12.1f %12.0f\n", r.Experiment, r.Name, r.Patterns, r.NsPerOp, r.MBps, r.Mbps)
	}
	if *jsonOut != "" {
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "dpibench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d records)\n", *jsonOut, len(rep.Records))
	}
	if *baseline != "" {
		base, err := bench.LoadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dpibench: %v\n", err)
			os.Exit(1)
		}
		cmp := bench.Compare(base, rep)
		fmt.Printf("\n== Regression check vs %s (threshold %.0f%%) ==\n", *baseline, *regress)
		fmt.Printf("%-10s %-24s %14s %14s %9s\n", "experiment", "name", "baseline Mbps", "current Mbps", "delta")
		for _, c := range cmp {
			fmt.Printf("%-10s %-24s %14.0f %14.0f %+8.1f%%\n", c.Experiment, c.Name, c.BaselineMbps, c.CurrentMbps, c.DeltaPct)
		}
		if msg := gateFailure(cmp, *regress); msg != "" {
			fmt.Fprintf(os.Stderr, "dpibench: %s vs %s\n", msg, *baseline)
			os.Exit(1)
		}
		fmt.Println("no regressions beyond threshold")
	}
}

// gateFailure decides the -baseline gate: it returns why the gate
// fails, or "" when it passes. Comparing nothing fails — a renamed or
// missing record set must not pass as "no regressions".
func gateFailure(cmp []bench.Comparison, regress float64) string {
	if len(cmp) == 0 {
		return "no overlapping records to compare"
	}
	if reg := bench.Regressed(cmp, regress); len(reg) > 0 {
		return fmt.Sprintf("%d record(s) regressed more than %.0f%%", len(reg), regress)
	}
	return ""
}

func runFig8(opt bench.Options) error {
	fmt.Println("== Figure 8: AC throughput vs number of patterns (virtualization effect) ==")
	rows, err := bench.Fig8(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %18s %14s %18s\n", "patterns", "standalone[Mbps]", "1 VM [Mbps]", "4 VMs avg [Mbps]")
	for _, r := range rows {
		fmt.Printf("%10d %18.0f %14.0f %18.0f\n", r.Patterns, r.StandaloneMbps, r.OneVMMbps, r.FourVMAvgMbps)
	}
	fmt.Println()
	return nil
}

func runTable2(opt bench.Options) error {
	fmt.Println("== Table 2: separate vs combined pattern sets ==")
	rows, err := bench.Table2(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %10s %10s %12s\n", "Sets", "Patterns", "Space", "Throughput")
	for _, r := range rows {
		fmt.Printf("%-16s %10d %8.1fMB %8.0fMbps\n", r.Sets, r.Patterns, r.SpaceMB, r.Mbps)
	}
	if len(rows) == 3 && rows[0].Mbps > 0 {
		fmt.Printf("combined vs separate: %.0f%% of Snort1's throughput\n\n", rows[2].Mbps/rows[0].Mbps*100)
	}
	return nil
}

func runParallel(opt bench.Options) error {
	fmt.Println("== Parallel Inspect: one sharded instance, throughput vs scan workers ==")
	rows, err := bench.ParallelScaling(opt)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatParallel(rows))
	fmt.Println()
	return nil
}

func runLanes(opt bench.Options) error {
	fmt.Println("== Lanes: the deployed scan on the low-match and attack corpora, and the cold-state walk ==")
	results, err := bench.Lanes(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %10s %10s %10s\n", "corpus", "Mbps", "ns/pkt", "matches")
	for _, r := range results {
		fmt.Printf("%-16s %10.0f %10.0f %10d\n", r.Name, r.ThroughputMbps(), r.NsPerOp(), r.Matches)
	}
	fmt.Println()
	return nil
}

func runFig9a(opt bench.Options) error {
	fmt.Println("== Figure 9(a): two pipelined middleboxes vs two virtual DPI instances (Snort1+Snort2) ==")
	rows, err := bench.Fig9a(opt)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFig9(rows))
	fmt.Println()
	return nil
}

func runFig9b(opt bench.Options) error {
	fmt.Println("== Figure 9(b): two pipelined middleboxes vs two virtual DPI instances (Snort+ClamAV) ==")
	rows, err := bench.Fig9b(opt)
	if err != nil {
		return err
	}
	fmt.Print(bench.FormatFig9(rows))
	fmt.Println()
	return nil
}

func runFig10a(opt bench.Options) error {
	res, err := bench.Fig10a(opt)
	if err != nil {
		return err
	}
	printFig10("Figure 10(a)", res)
	return nil
}

func runFig10b(opt bench.Options) error {
	res, err := bench.Fig10b(opt)
	if err != nil {
		return err
	}
	printFig10("Figure 10(b)", res)
	return nil
}

func printFig10(title string, r *bench.Fig10Result) {
	fmt.Printf("== %s: achievable throughput regions (%s vs %s) ==\n", title, r.NameA, r.NameB)
	fmt.Printf("separate middleboxes (rectangle): x <= %.0f Mbps, y <= %.0f Mbps\n", r.RectAMbps, r.RectBMbps)
	fmt.Printf("virtual DPI (triangle):           x + y <= %.0f Mbps (one machine: %.0f Mbps)\n",
		r.TriangleBudget, r.CombinedMbps)
	fmt.Printf("capacity borrowable by %s when %s is idle: %+.0f%%\n", r.NameA, r.NameB, r.BorrowablePctA())
	fmt.Printf("capacity borrowable by %s when %s is idle: %+.0f%%\n", r.NameB, r.NameA, r.BorrowablePctB())
	// Region boundary samples for plotting.
	fmt.Printf("%12s %14s %14s\n", "x [Mbps]", "rect y", "triangle y")
	steps := 5
	for i := 0; i <= steps; i++ {
		x := r.TriangleBudget * float64(i) / float64(steps)
		rectY := r.RectBMbps
		if x > r.RectAMbps {
			rectY = 0
		}
		triY := r.TriangleBudget - x
		fmt.Printf("%12.0f %14.0f %14.0f\n", x, rectY, triY)
	}
	fmt.Println()
}

func runFig11(opt bench.Options) error {
	fmt.Println("== Figure 11: CDF of non-empty match report sizes ==")
	res, err := bench.Fig11(opt)
	if err != nil {
		return err
	}
	fmt.Printf("packets: %d, no-match: %.1f%%, mean report: %.1f B, p50/p90/p99: %d/%d/%d B\n",
		res.Packets, res.PctNoMatch, res.MeanBytes, res.P50, res.P90, res.P99)
	fmt.Printf("%14s %12s\n", "size [bytes]", "cum %")
	step := len(res.CDF)/16 + 1
	for i := 0; i < len(res.CDF); i += step {
		fmt.Printf("%14d %11.1f%%\n", res.CDF[i].SizeBytes, res.CDF[i].CumPct)
	}
	if len(res.CDF) > 0 {
		last := res.CDF[len(res.CDF)-1]
		fmt.Printf("%14d %11.1f%%\n", last.SizeBytes, last.CumPct)
	}
	fmt.Println()
	return nil
}

func runSlowdown(opt bench.Options) error {
	fmt.Println("== Section 1 footnote: DPI slowdown inside a middlebox ==")
	res, err := bench.Slowdown(opt)
	if err != nil {
		return err
	}
	fmt.Printf("scan per packet:    %8.0f ns\n", res.ScanNsPerPkt)
	fmt.Printf("consume per packet: %8.0f ns\n", res.ConsumeNsPerPkt)
	fmt.Printf("slowdown factor:    %8.1fx (paper: >= 2.9x)\n\n", res.Factor)
	return nil
}

func runAblations(opt bench.Options) error {
	fmt.Println("== Ablation: matcher representations ==")
	mrows, err := bench.AblationMatchers(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %10s\n", "matcher", "Mbps", "space")
	for _, r := range mrows {
		fmt.Printf("%-12s %12.0f %8.1fMB\n", r.Matcher, r.Mbps, r.SpaceMB)
	}

	fmt.Println("\n== Ablation: per-state middlebox bitmap filtering ==")
	brows, err := bench.AblationBitmap(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%12s %12s %12s\n", "active sets", "Mbps", "matches")
	for _, r := range brows {
		fmt.Printf("%12d %12.0f %12d\n", r.ActiveSets, r.Mbps, r.Matches)
	}

	fmt.Println("\n== Ablation: instance automaton kind (regular vs MCA2-dedicated) ==")
	krows, err := bench.AblationEngineKinds(opt)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %10s\n", "kind", "Mbps", "space")
	for _, r := range krows {
		fmt.Printf("%-12s %12.0f %8.1fMB\n", r.Kind, r.Mbps, r.SpaceMB)
	}
	fmt.Println()
	return nil
}
