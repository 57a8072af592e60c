package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// reportOpts keeps the Collect tests fast: tiny corpus, tiny sets.
var reportOpts = Options{Quick: true, Seed: 5, CorpusBytes: 64 << 10}

func TestCollectReport(t *testing.T) {
	rep, err := Collect([]string{"table2", "parallel"}, reportOpts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != Schema || rep.GoVersion == "" || rep.GOMAXPROCS < 1 {
		t.Fatalf("report header = %+v", rep)
	}
	if !rep.Quick || rep.Seed != 5 || rep.CorpusBytes != 64<<10 {
		t.Fatalf("options not recorded: %+v", rep)
	}
	if len(rep.Records) < 4 {
		t.Fatalf("records = %d, want table2's 3 plus the worker sweep", len(rep.Records))
	}
	seen := map[string]bool{}
	var engineRecords int
	for _, r := range rep.Records {
		key := r.Experiment + "/" + r.Name
		if seen[key] {
			t.Errorf("duplicate record key %s", key)
		}
		seen[key] = true
		if r.Mbps <= 0 || r.MBps <= 0 || r.NsPerOp <= 0 || r.Packets <= 0 || r.Patterns <= 0 {
			t.Errorf("incomplete record: %+v", r)
		}
		if r.Metrics != nil {
			engineRecords++
			if got, ok := r.Metrics.Counter("core.packets"); !ok || got == 0 {
				t.Errorf("%s: engine record without core.packets: %v %v", key, got, ok)
			}
		}
	}
	if engineRecords == 0 {
		t.Error("no record carries an engine metric snapshot")
	}

	// Round trip through the file format.
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(rep.Records) || back.GoVersion != rep.GoVersion {
		t.Fatalf("round trip lost data: %d vs %d records", len(back.Records), len(rep.Records))
	}
}

func TestCollectUnknownExperiment(t *testing.T) {
	if _, err := Collect([]string{"fig11"}, reportOpts); err == nil ||
		!strings.Contains(err.Error(), "no record collector") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompareAndRegressed(t *testing.T) {
	base := &Report{Schema: Schema, Records: []Record{
		{Experiment: "fig9a", Name: "combined-200", Mbps: 1000},
		{Experiment: "fig9a", Name: "combined-600", Mbps: 500},
		{Experiment: "parallel", Name: "workers-8", Mbps: 900}, // absent in current
		{Experiment: "fig9a", Name: "zero", Mbps: 0},           // unusable baseline
	}}
	cur := &Report{Schema: Schema, Records: []Record{
		{Experiment: "fig9a", Name: "combined-200", Mbps: 1100}, // +10%
		{Experiment: "fig9a", Name: "combined-600", Mbps: 400},  // -20%
		{Experiment: "parallel", Name: "workers-2", Mbps: 800},  // absent in baseline
		{Experiment: "fig9a", Name: "zero", Mbps: 50},
	}}
	cmp := Compare(base, cur)
	if len(cmp) != 2 {
		t.Fatalf("comparisons = %+v", cmp)
	}
	reg := Regressed(cmp, 15)
	if len(reg) != 1 || reg[0].Name != "combined-600" {
		t.Fatalf("regressions = %+v", reg)
	}
	if reg[0].DeltaPct > -19.9 || reg[0].DeltaPct < -20.1 {
		t.Errorf("DeltaPct = %f, want -20", reg[0].DeltaPct)
	}
	// The -20% row survives a looser gate.
	if got := Regressed(cmp, 25); len(got) != 0 {
		t.Errorf("loose gate flagged %+v", got)
	}
}

func TestMedianRecords(t *testing.T) {
	rec := func(name string, mbps float64) Record { return Record{Name: name, Mbps: mbps} }
	got := medianRecords([][]Record{
		{rec("a", 1), rec("b", 9)},
		{rec("a", 5), rec("b", 2)},
		{rec("a", 3), rec("b", 4)},
	})
	if len(got) != 2 || got[0] != rec("a", 3) || got[1] != rec("b", 4) {
		t.Fatalf("medianRecords = %+v, want a=3 and b=4", got)
	}
}

func TestQuickDoesNotOverrideExplicitCorpus(t *testing.T) {
	o := Options{Quick: true, CorpusBytes: 1 << 20}
	o.defaults()
	if o.CorpusBytes != 1<<20 {
		t.Fatalf("explicit corpus overridden to %d", o.CorpusBytes)
	}
	o = Options{Quick: true}
	o.defaults()
	if o.CorpusBytes != 256<<10 {
		t.Fatalf("quick default corpus = %d", o.CorpusBytes)
	}
}
