package bench

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"

	"dpiservice/internal/obs"
)

// This file defines the machine-readable benchmark report emitted by
// cmd/dpibench -json (BENCH_*.json). Records carry enough detail —
// packets, ns/op, MB/s, allocations, what the engine's metrics recorded
// — to compare runs over time; Compare is the per-round comparison of
// the CI regression gate, head against merge base (see EXPERIMENTS.md).

// Schema identifies the BENCH_*.json layout.
const Schema = "dpibench/v1"

// Record is one measurement in a benchmark report. Experiment+Name is
// the stable key regression comparisons match on.
type Record struct {
	Experiment  string  `json:"experiment"`
	Name        string  `json:"name"`
	Patterns    int     `json:"patterns"`
	Packets     int64   `json:"packets"`
	Bytes       int64   `json:"bytes"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBps        float64 `json:"mb_per_s"`
	Mbps        float64 `json:"mbps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Matches     uint64  `json:"matches"`
	// Metrics is what the engine's registry recorded during the
	// measurement (Result.Metrics); absent for raw-automaton records.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Approximate per-packet scan-latency quantiles of the measurement,
	// from the engine's core.scan_ns histogram.
	ScanP50Ns float64 `json:"scan_p50_ns,omitempty"`
	ScanP99Ns float64 `json:"scan_p99_ns,omitempty"`
}

// Report is a full dpibench JSON report.
type Report struct {
	Schema      string   `json:"schema"`
	GoVersion   string   `json:"go_version"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	Quick       bool     `json:"quick"`
	Seed        int64    `json:"seed"`
	CorpusBytes int      `json:"corpus_bytes"`
	Repeat      int      `json:"repeat"`
	Records     []Record `json:"records"`
}

// recordFrom converts one measurement into the record named name, which
// keeps sweep points unique within an experiment.
func recordFrom(experiment, name string, r Result) Record {
	rec := Record{
		Experiment:  experiment,
		Name:        name,
		Patterns:    r.Patterns,
		Packets:     r.Packets,
		Bytes:       r.Bytes,
		NsPerOp:     r.NsPerOp(),
		MBps:        r.MBps(),
		Mbps:        r.ThroughputMbps(),
		AllocsPerOp: r.AllocsPerOp(),
		Matches:     r.Matches,
		Metrics:     r.Metrics,
	}
	if r.Metrics != nil {
		if h, ok := r.Metrics.Histogram("core.scan_ns"); ok && h.Count > 0 {
			rec.ScanP50Ns = h.Quantile(0.50)
			rec.ScanP99Ns = h.Quantile(0.99)
		}
	}
	return rec
}

// CollectableExperiments lists the experiments Collect supports.
func CollectableExperiments() []string {
	return []string{"table2", "fig9a", "fig9b", "parallel", "lanes"}
}

// Collect runs the given experiments and assembles their raw
// measurements into a report.
func Collect(experiments []string, o Options) (*Report, error) {
	o.defaults()
	rep := &Report{
		Schema:      Schema,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       o.Quick,
		Seed:        o.Seed,
		CorpusBytes: o.CorpusBytes,
		Repeat:      o.Repeat,
	}
	trials := o.Trials
	if trials < 1 {
		trials = 1
	}
	for _, exp := range experiments {
		// Median of N: every record is the median-throughput one of its
		// N trials. Outside load moves a measurement both ways on a
		// shared host (a quiet neighbour lets the clock boost), so the
		// median, not the maximum, is the stable estimator.
		var runs [][]Record // [trial][record]
		for t := 0; t < trials; t++ {
			recs, err := collectOne(exp, o)
			if err != nil {
				return nil, fmt.Errorf("bench: collect %s (trial %d): %w", exp, t+1, err)
			}
			runs = append(runs, recs)
		}
		rep.Records = append(rep.Records, medianRecords(runs)...)
	}
	return rep, nil
}

// medianRecords returns, record by record, the median-throughput one of
// the runs, each run listing the same records in the same order.
func medianRecords(runs [][]Record) []Record {
	var out []Record
	for i := range runs[0] {
		same := make([]Record, len(runs))
		for t := range runs {
			same[t] = runs[t][i]
		}
		slices.SortFunc(same, func(a, b Record) int { return cmp.Compare(a.Mbps, b.Mbps) })
		out = append(out, same[len(same)/2])
	}
	return out
}

func collectOne(exp string, o Options) ([]Record, error) {
	var (
		results []Result
		err     error
	)
	switch exp {
	case "table2":
		results, err = table2Results(o)
	case "fig9a", "fig9b":
		return collectFig9(exp, o)
	case "parallel":
		results, err = parallelResults(o)
	case "lanes":
		results, err = Lanes(o)
	default:
		return nil, fmt.Errorf("experiment %q has no record collector", exp)
	}
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, r := range results {
		recs = append(recs, recordFrom(exp, lanesName(r.Name), r))
	}
	return recs, nil
}

// lanesName is the record name of a MeasureEngine result. The prefix
// marks records of the lane-interleaved engine scan, so none is ever
// compared with a record another matcher produced under the old name.
func lanesName(name string) string { return "lanes-" + name }

// collectFig9 records the underlying measurements of every Figure 9(a)
// or 9(b) sweep point (the figure's pipeline/virtual curves are pure
// functions of them).
func collectFig9(exp string, o Options) ([]Record, error) {
	totals, results, err := fig9Points(o, exp == "fig9b")
	if err != nil {
		return nil, err
	}
	var recs []Record
	for i, point := range results {
		for _, r := range point {
			recs = append(recs, recordFrom(exp, lanesName(fmt.Sprintf("%s-%d", r.Name, totals[i])), r))
		}
	}
	return recs, nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a BENCH_*.json report and checks its schema.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, rep.Schema, Schema)
	}
	return &rep, nil
}

// Comparison is one baseline-vs-current throughput delta.
type Comparison struct {
	Experiment   string  `json:"experiment"`
	Name         string  `json:"name"`
	BaselineMbps float64 `json:"baseline_mbps"`
	CurrentMbps  float64 `json:"current_mbps"`
	// DeltaPct is the throughput change vs baseline; negative = slower.
	DeltaPct float64 `json:"delta_pct"`
}

// Compare matches records by Experiment+Name and returns one entry per
// record present in both reports. Records only one side measured (e.g.
// a worker count the other machine does not have) are skipped.
func Compare(baseline, current *Report) []Comparison {
	idx := make(map[string]Record, len(baseline.Records))
	for _, r := range baseline.Records {
		idx[r.Experiment+"/"+r.Name] = r
	}
	var out []Comparison
	for _, c := range current.Records {
		b, ok := idx[c.Experiment+"/"+c.Name]
		if !ok || b.Mbps <= 0 {
			continue
		}
		out = append(out, Comparison{
			Experiment:   c.Experiment,
			Name:         c.Name,
			BaselineMbps: b.Mbps,
			CurrentMbps:  c.Mbps,
			DeltaPct:     (c.Mbps - b.Mbps) / b.Mbps * 100,
		})
	}
	return out
}

// Regressed filters comparisons that got more than thresholdPct percent
// slower than baseline.
func Regressed(cmp []Comparison, thresholdPct float64) []Comparison {
	var out []Comparison
	for _, c := range cmp {
		if c.DeltaPct < -thresholdPct {
			out = append(out, c)
		}
	}
	return out
}
