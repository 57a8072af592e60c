package bench

import (
	"fmt"
	"runtime"

	"dpiservice/internal/core"
	"dpiservice/internal/patterns"
)

// This file measures the multi-core scaling of a single DPI instance:
// the sharded, re-entrant engine driven through InspectBatch with k
// workers, each streaming runs of ScanRun packets, should track the
// paper's "k VMs, one per core" aggregate (Figure 8 / Section 6.2),
// without the k separate automaton copies.

// ParallelRow is one point of the throughput-vs-cores curve.
type ParallelRow struct {
	Workers int
	Mbps    float64
	Speedup float64 // vs the 1-worker row
}

// parallelWorkerCounts picks the sweep: powers of two up to GOMAXPROCS,
// always including GOMAXPROCS itself.
func parallelWorkerCounts() []int {
	maxW := runtime.GOMAXPROCS(0)
	var counts []int
	for w := 1; w < maxW; w <<= 1 {
		counts = append(counts, w)
	}
	return append(counts, maxW)
}

// parallelResults runs the worker sweep and returns the raw results.
func parallelResults(o Options) ([]Result, error) {
	o.defaults()
	total := patterns.SnortFullSize
	if o.Quick {
		total = 400
	}
	set := patterns.SnortLike(total, o.Seed)
	corpus := corpusFor(o, set)
	e, tag, err := EngineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}
	var results []Result
	for _, w := range parallelWorkerCounts() {
		results = append(results, MeasureEngine(fmt.Sprintf("workers-%d", w), e, tag, corpus, 256, o.Repeat, w))
	}
	return results, nil
}

// ParallelScaling sweeps InspectBatch workers over the HTTP-mix
// workload on one engine with the full Snort-like set.
func ParallelScaling(o Options) ([]ParallelRow, error) {
	results, err := parallelResults(o)
	if err != nil {
		return nil, err
	}
	var rows []ParallelRow
	for i, r := range results {
		row := ParallelRow{Workers: parallelWorkerCounts()[i], Mbps: r.ThroughputMbps()}
		if len(rows) > 0 && rows[0].Mbps > 0 {
			row.Speedup = row.Mbps / rows[0].Mbps
		} else {
			row.Speedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatParallel renders the throughput-vs-cores table.
func FormatParallel(rows []ParallelRow) string {
	out := fmt.Sprintf("%10s %14s %10s\n", "workers", "Mbps", "speedup")
	for _, r := range rows {
		out += fmt.Sprintf("%10d %14.0f %9.2fx\n", r.Workers, r.Mbps, r.Speedup)
	}
	return out
}
