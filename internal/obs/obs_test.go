package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pkts")
	c.Inc()
	c.Add(9)
	if got := c.Value(); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if r.Counter("pkts") != c {
		t.Fatal("Counter did not return the registered instance")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("depth") != g {
		t.Fatal("Gauge did not return the registered instance")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sz", []uint64{10, 100})
	for _, v := range []uint64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := uint64(1 + 10 + 11 + 100 + 101 + 5000); h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	hv, ok := r.Snapshot().Histogram("sz")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	counts := make([]uint64, len(hv.Buckets))
	for i, b := range hv.Buckets {
		counts[i] = b.Count
	}
	// <=10: {1,10}; <=100: {11,100}; overflow: {101,5000}.
	if counts[0] != 2 || counts[1] != 2 || counts[2] != 2 {
		t.Fatalf("bucket counts = %v, want [2 2 2]", counts)
	}
	if !hv.Buckets[len(hv.Buckets)-1].Inf {
		t.Fatal("last bucket should be the overflow bucket")
	}
	if r.Histogram("sz", nil) != h {
		t.Fatal("Histogram did not return the registered instance")
	}

	// ObserveN(v, n) is n Observe(v) calls.
	h.ObserveN(50, 3)
	if h.Count() != 9 || h.Sum() != 1+10+11+100+101+5000+150 {
		t.Fatalf("after ObserveN(50, 3): count = %d, sum = %d", h.Count(), h.Sum())
	}
	if hv, _ = r.Snapshot().Histogram("sz"); hv.Buckets[1].Count != 5 {
		t.Fatalf("ObserveN(50, 3) put %d samples in the <=100 bucket, want 5", hv.Buckets[1].Count)
	}
}

func TestSnapshotSortedAndSerialized(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("z").Set(-5)
	r.Histogram("h", SizeBounds).Observe(300)

	s := r.Snapshot()
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("counters not sorted: %v", names)
	}
	if v, ok := s.Counter("a"); !ok || v != 1 {
		t.Fatalf("Counter(a) = %d, %v", v, ok)
	}
	if v, ok := s.Gauge("z"); !ok || v != -5 {
		t.Fatalf("Gauge(z) = %d, %v", v, ok)
	}

	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if v, ok := back.Counter("b"); !ok || v != 2 {
		t.Fatalf("round-tripped Counter(b) = %d, %v", v, ok)
	}

	buf.Reset()
	if err := s.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"a 1\n", "b 2\n", "z -5\n", "h.count 1\n", "h.sum 300\n", "h.le.inf 0\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text export missing %q:\n%s", want, text)
		}
	}
}

func TestHotPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", LatencyBounds)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Add(1)
		g.Set(0)
		h.Observe(12345)
	})
	if allocs != 0 {
		t.Fatalf("hot-path updates allocated %v allocs/op, want 0", allocs)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers, n = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat", LatencyBounds)
			for i := 0; i < n; i++ {
				c.Inc()
				h.Observe(uint64(i))
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*n {
		t.Fatalf("counter = %d, want %d", got, workers*n)
	}
	if got := r.Histogram("lat", nil).Count(); got != workers*n {
		t.Fatalf("histogram count = %d, want %d", got, workers*n)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []uint64{100, 200, 400})
	// 100 observations uniformly in (0,100], none elsewhere: every
	// quantile interpolates inside the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(uint64(i))
	}
	hv, _ := r.Snapshot().Histogram("q")
	if p := hv.Quantile(0.5); p < 40 || p > 60 {
		t.Errorf("p50 = %v, want ~50", p)
	}
	if p := hv.Quantile(0.99); p < 90 || p > 100 {
		t.Errorf("p99 = %v, want ~99", p)
	}
	if p := hv.Quantile(1); p != 100 {
		t.Errorf("p100 = %v, want 100", p)
	}

	// Overflow observations clamp to the last finite bound.
	h2 := r.Histogram("q2", []uint64{100})
	h2.Observe(5000)
	hv2, _ := r.Snapshot().Histogram("q2")
	if p := hv2.Quantile(0.5); p != 100 {
		t.Errorf("overflow p50 = %v, want clamp to 100", p)
	}

	// Empty histogram reports 0.
	if p := (HistogramValue{}).Quantile(0.5); p != 0 {
		t.Errorf("empty quantile = %v, want 0", p)
	}
}

func TestWriteTextQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []uint64{100, 1000})
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	var sb strings.Builder
	if err := r.Snapshot().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "lat.p50 ") || !strings.Contains(out, "lat.p99 ") {
		t.Fatalf("WriteText missing quantile lines:\n%s", out)
	}
}

func TestSnapshotSince(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Gauge("g").Set(3)
	h := r.Histogram("h", SizeBounds)
	h.Observe(10)
	before := r.Snapshot()
	r.Counter("c").Add(2)
	r.Counter("new").Inc()
	r.Gauge("g").Set(7)
	h.Observe(10)
	h.Observe(300)
	d := r.Snapshot().Since(before)
	if v, _ := d.Counter("c"); v != 2 {
		t.Errorf("Counter(c) = %d, want 2", v)
	}
	if v, _ := d.Counter("new"); v != 1 {
		t.Errorf("Counter(new) = %d, want 1", v)
	}
	if v, _ := d.Gauge("g"); v != 7 {
		t.Errorf("Gauge(g) = %d, want the current 7", v)
	}
	hv, _ := d.Histogram("h")
	var buckets uint64
	for _, b := range hv.Buckets {
		buckets += b.Count
	}
	if hv.Count != 2 || hv.Sum != 310 || buckets != 2 {
		t.Errorf("histogram delta = %+v, want count 2, sum 310", hv)
	}
	// The earlier snapshot is not modified.
	if hv, _ := before.Histogram("h"); hv.Count != 1 {
		t.Errorf("earlier histogram changed: %+v", hv)
	}
}
