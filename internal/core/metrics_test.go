package core

import (
	"testing"

	"dpiservice/internal/obs"
)

// TestMetricsMatchSnapshot checks that the obs registry and the legacy
// StatsSnapshot view agree — they are the same counters.
func TestMetricsMatchSnapshot(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		[]byte("GET /etc/passwd HTTP/1.1"),
		[]byte("nothing to see here"),
		[]byte("an evil malware-body payload"),
	}
	for i, p := range payloads {
		tuple := parallelFlowTuple(i)
		if _, err := e.Inspect(1, tuple, p); err != nil {
			t.Fatal(err)
		}
	}
	ss := e.Snapshot()
	ms := e.Metrics().Snapshot()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"core.packets", ss.Packets},
		{"core.bytes", ss.Bytes},
		{"core.bytes_scanned", ss.BytesScanned},
		{"core.matches", ss.Matches},
		{"core.reports", ss.Reports},
		{"core.flows_evicted", ss.FlowsEvicted},
		{"core.regex_confirms", ss.RegexConfirms},
		{"core.regex_hits", ss.RegexHits},
	} {
		got, ok := ms.Counter(c.name)
		if !ok || got != c.want {
			t.Errorf("%s = %d (present=%v), want %d", c.name, got, ok, c.want)
		}
	}
	if ss.Packets != uint64(len(payloads)) {
		t.Fatalf("packets = %d, want %d", ss.Packets, len(payloads))
	}
	// Every payload hit a distinct new flow: misses == flows, hits == 0.
	if v, _ := ms.Counter("core.flow_misses"); v != uint64(len(payloads)) {
		t.Errorf("core.flow_misses = %d, want %d", v, len(payloads))
	}
	if v, _ := ms.Counter("core.flow_hits"); v != 0 {
		t.Errorf("core.flow_hits = %d, want 0", v)
	}
	if v, _ := ms.Gauge("core.flows_active"); v != int64(len(payloads)) {
		t.Errorf("core.flows_active = %d, want %d", v, len(payloads))
	}
	hv, ok := ms.Histogram("core.payload_bytes")
	if !ok || hv.Count != ss.Packets {
		t.Errorf("core.payload_bytes count = %d (present=%v), want %d", hv.Count, ok, ss.Packets)
	}
	// Shard scan counters must sum to the packet total.
	var shardSum uint64
	for _, c := range ms.Counters {
		if len(c.Name) > 11 && c.Name[:11] == "core.shard." {
			shardSum += c.Value
		}
	}
	if shardSum != ss.Packets {
		t.Errorf("sum of shard scans = %d, want %d", shardSum, ss.Packets)
	}

	// EndFlow releases the active-flow gauge.
	e.EndFlow(parallelFlowTuple(0))
	e.EndFlow(parallelFlowTuple(0)) // double-end must not underflow
	if v, _ := e.Metrics().Snapshot().Gauge("core.flows_active"); v != int64(len(payloads)-1) {
		t.Errorf("core.flows_active after EndFlow = %d, want %d", v, len(payloads)-1)
	}
}

// TestSharedRegistryAggregates covers Config.Metrics: two engines on
// one registry accumulate into the same counters.
func TestSharedRegistryAggregates(t *testing.T) {
	reg := obs.NewRegistry()
	cfg1 := twoBoxConfig()
	cfg1.Metrics = reg
	cfg2 := twoBoxConfig()
	cfg2.Metrics = reg
	e1, err := NewEngine(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Metrics() != reg || e2.Metrics() != reg {
		t.Fatal("engines did not adopt the provided registry")
	}
	e1.Inspect(1, parallelFlowTuple(0), []byte("x"))
	e2.Inspect(1, parallelFlowTuple(1), []byte("y"))
	if v, _ := reg.Snapshot().Counter("core.packets"); v != 2 {
		t.Fatalf("shared core.packets = %d, want 2", v)
	}
}

// TestInspectMetricsAllocFree is the acceptance gate for the metrics
// layer: steady-state Inspect — now fully instrumented — must still
// allocate nothing for a non-matching packet.
func TestInspectMetricsAllocFree(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	tuple := parallelFlowTuple(0)
	payload := []byte("completely innocuous payload bytes")
	// Warm up: create the flow state and populate the scratch pool.
	for i := 0; i < 16; i++ {
		if _, err := e.Inspect(1, tuple, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		rep, err := e.Inspect(1, tuple, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			t.Fatal("unexpected match")
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented Inspect allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkInspectAllocs reports allocs/op for the instrumented scan
// path; CI-visible companion to TestInspectMetricsAllocFree.
func BenchmarkInspectAllocs(b *testing.B) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		b.Fatal(err)
	}
	tuple := parallelFlowTuple(0)
	payload := []byte("completely innocuous payload bytes")
	for i := 0; i < 16; i++ {
		e.Inspect(1, tuple, payload)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(1, tuple, payload)
	}
}

// TestBatchTelemetry checks that the batch entry keeps core.scan_ns at
// one observation per packet and reports its run lengths.
func TestBatchTelemetry(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 10)
	for i := range items {
		items[i] = BatchItem{Tag: 2, Tuple: parallelFlowTuple(i), Payload: []byte("an evil malware-body payload")}
	}
	e.InspectBatch(items, 1)
	snap := e.Metrics().Snapshot()
	if h, _ := snap.Histogram("core.scan_ns"); h.Count != 10 {
		t.Errorf("core.scan_ns has %d observations for 10 packets", h.Count)
	}
	// One worker takes ten packets as one run.
	if h, _ := snap.Histogram("core.batch_group_size"); h.Count != 1 || h.Sum != 10 {
		t.Errorf("core.batch_group_size: %d runs holding %d packets, want 1 holding 10", h.Count, h.Sum)
	}
}
