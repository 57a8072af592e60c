package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints one row per (workload, end-to-end metric) of two
// -out files, A the parent and B the change, and returns the exit code:
// non-zero when B is worse than A by more than the metric's bound, or
// when B failed more packets. A row whose own slices spread wider than
// the bound cannot resolve a difference of that size and is labelled
// unresolved instead.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResult(pathA)
	if err == nil {
		var b resultFile
		if b, err = readResult(pathB); err == nil {
			return compareResults(w, a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// spread is the distance between a metric's extreme slices as a share of
// its value; 0 when it has fewer than two slices.
func spread(m measurement) float64 {
	if len(m.Slices) < 2 || m.Value == 0 {
		return 0
	}
	lo, hi := m.Slices[0], m.Slices[0]
	for _, v := range m.Slices {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / m.Value
}

func compareResults(w io.Writer, a, b resultFile) int {
	byName := make(map[string]*workloadResult)
	for _, r := range b.Workloads {
		if !r.Traced {
			byName[r.Name] = r
		}
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if ra.Traced || rb == nil {
			continue
		}
		if ra.Digest != rb.Digest {
			fmt.Fprintf(w, "%-13s inputs differ (digest %s vs %s): not comparable\n", ra.Name, ra.Digest, rb.Digest)
			code = 1
			continue
		}
		for _, spec := range e2eMetrics {
			ma, mb := ra.Metrics[spec.Name], rb.Metrics[spec.Name]
			if ma.Value == 0 {
				continue
			}
			// worse is the change in the bad direction as a share of A.
			worse := (mb.Value - ma.Value) / ma.Value
			if spec.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case spread(ma) > spec.Bound || spread(mb) > spec.Bound:
				verdict = fmt.Sprintf("unresolved (slices spread %.0f%% / %.0f%%)", 100*spread(ma), 100*spread(mb))
			case worse > spec.Bound:
				verdict = "BREACH"
				code = 1
			}
			fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				ra.Name, spec.Name, ma.Value, mb.Value, 100*(mb.Value-ma.Value)/ma.Value, 100*spec.Bound, verdict)
		}
		fa, fb := ra.Tally.failPct(), rb.Tally.failPct()
		verdict := "ok"
		if fb > fa {
			verdict = "BREACH"
			code = 1
		}
		fmt.Fprintf(w, "%-13s %-20s %14.4f %14.4f %9s %7s  %s\n", ra.Name, "fail_pct", fa, fb, "", "0", verdict)
	}
	return code
}
