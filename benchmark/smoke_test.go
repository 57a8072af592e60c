package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke builds the daemons and runs one workload end to end with
// sub-second slices: the untraced run, then the traced run's layer
// replay and traced end-to-end half. It spawns processes and binds
// sockets, so like the repository's DPI_WIRE_E2E test it is opt-in:
//
//	DPI_BENCH_SMOKE=1 go test -C benchmark -run TestSmoke .
//
// The bare-forwarding measurement re-executes the benchmark binary and
// is left to a real `-trace 1` run.
func TestSmoke(t *testing.T) {
	if os.Getenv("DPI_BENCH_SMOKE") != "1" {
		t.Skip("set DPI_BENCH_SMOKE=1 to run the process-spawning smoke test")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f := &fleet{binDir: filepath.Join(dir, "bin"), logDir: dir}
	if err := buildDaemons(root, f.binDir); err != nil {
		t.Fatal(err)
	}
	defer f.stopAll()
	const seconds = 6 // slices of 0.4 to 0.7 s
	w, err := buildWorkload("http-mtu", 1)
	if err != nil {
		t.Fatal(err)
	}

	res, err := runUntraced(f, w, seconds)
	f.stopAll()
	if err != nil {
		f.dumpLogs(os.Stderr)
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("untraced: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(e2eMetrics) {
		t.Errorf("untraced: %d metrics reported, the contract has %d", len(res.Metrics), len(e2eMetrics))
	}
	for _, m := range e2eMetrics {
		if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 {
			t.Errorf("untraced: metric %s = %v", m.Name, v.Value)
		}
	}

	traced := &workloadResult{Metrics: make(map[string]measurement)}
	log := &spanLog{}
	if _, err := replayLayers(w, traced, log); err != nil {
		t.Fatal(err)
	}
	_, err = runTracedE2E(f, w, seconds, traced, log)
	f.stopAll()
	if err != nil {
		f.dumpLogs(os.Stderr)
		t.Fatal(err)
	}
	if !traced.Correct {
		t.Errorf("traced: %+v", traced.Tally)
	}
	for _, m := range layerMetrics {
		if strings.HasPrefix(m.Name, "wire.null_") || strings.HasPrefix(m.Name, "ledger.") {
			continue // runNullServer and runWorkload fill these
		}
		if _, ok := traced.Metrics[m.Name]; !ok {
			t.Errorf("traced: metric %s not reported", m.Name)
		}
	}
	names := make(map[string]bool)
	for _, s := range log.spans {
		names[s.Name] = true
	}
	for _, want := range []string{"replay", "core.inspect", "wire.syscall", "driver.rtt", "inst.scan"} {
		if !names[want] {
			t.Errorf("no %s span recorded", want)
		}
	}
}
