package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// CounterValue is one counter reading in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge reading in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramBucket is one bucket of a histogram snapshot. The overflow
// bucket has Inf set instead of an upper bound.
type HistogramBucket struct {
	UpperBound uint64 `json:"le,omitempty"`
	Inf        bool   `json:"inf,omitempty"`
	Count      uint64 `json:"count"`
}

// HistogramValue is one histogram reading in a snapshot.
type HistogramValue struct {
	Name    string            `json:"name"`
	Count   uint64            `json:"count"`
	Sum     uint64            `json:"sum"`
	Buckets []HistogramBucket `json:"buckets"`
}

// Quantile returns an approximation of the p-quantile (0 <= p <= 1) of
// the observations, assuming a uniform distribution within each bucket
// (linear interpolation between bucket bounds). Observations that
// landed in the overflow bucket clamp to the last finite bound — the
// histogram cannot resolve beyond its range. Returns 0 for an empty
// histogram.
func (h HistogramValue) Quantile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cum, lower uint64
	for _, b := range h.Buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank && b.Count > 0 {
			if b.Inf {
				return float64(lower)
			}
			frac := (rank - float64(prev)) / float64(b.Count)
			return float64(lower) + frac*(float64(b.UpperBound)-float64(lower))
		}
		if !b.Inf {
			lower = b.UpperBound
		}
	}
	return float64(lower)
}

// Snapshot is a point-in-time reading of every instrument in a
// registry, each section sorted by name. Snapshots are plain data:
// safe to copy, compare, and marshal.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot reads every instrument. Individual reads are atomic; the
// snapshot as a whole is not a consistent cut across instruments,
// which is fine for monitoring and for monotonicity checks.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := &Snapshot{}
	for name, c := range ctrs {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		hv := HistogramValue{Name: name, Count: h.Count(), Sum: h.Sum()}
		for i := range h.buckets {
			b := HistogramBucket{Count: h.buckets[i].Load()}
			if i < len(h.bounds) {
				b.UpperBound = h.bounds[i]
			} else {
				b.Inf = true
			}
			hv.Buckets = append(hv.Buckets, b)
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the value of the named counter in the snapshot.
func (s *Snapshot) Counter(name string) (uint64, bool) {
	for i := range s.Counters {
		if s.Counters[i].Name == name {
			return s.Counters[i].Value, true
		}
	}
	return 0, false
}

// Gauge returns the value of the named gauge in the snapshot.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return s.Gauges[i].Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram reading in the snapshot.
func (s *Snapshot) Histogram(name string) (HistogramValue, bool) {
	for i := range s.Histograms {
		if s.Histograms[i].Name == name {
			return s.Histograms[i], true
		}
	}
	return HistogramValue{}, false
}

// Since returns what was recorded between an earlier snapshot of the
// same registry and s: counters and histograms (count, sum, buckets)
// less their earlier readings, gauges as s read them. Instruments the
// earlier snapshot lacks count from zero.
func (s *Snapshot) Since(earlier *Snapshot) *Snapshot {
	d := &Snapshot{Gauges: s.Gauges}
	for _, c := range s.Counters {
		v, _ := earlier.Counter(c.Name)
		d.Counters = append(d.Counters, CounterValue{Name: c.Name, Value: c.Value - v})
	}
	for _, h := range s.Histograms {
		e, _ := earlier.Histogram(h.Name)
		h.Buckets = append([]HistogramBucket(nil), h.Buckets...)
		for i := range e.Buckets {
			h.Buckets[i].Count -= e.Buckets[i].Count
		}
		h.Count -= e.Count
		h.Sum -= e.Sum
		d.Histograms = append(d.Histograms, h)
	}
	return d
}

// WriteJSON marshals the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot in expvar-style lines, one
// "name value" pair per line; histograms expand into name.count,
// name.sum, approximate name.p50/name.p99 quantiles (when non-empty),
// and per-bucket name.le.<bound> lines.
func (s *Snapshot) WriteText(w io.Writer) error {
	var buf []byte
	var firstErr error
	line := func(name string, v uint64) {
		buf = append(buf[:0], name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, v, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, c := range s.Counters {
		line(c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		buf = append(buf[:0], g.Name...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, g.Value, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, h := range s.Histograms {
		line(h.Name+".count", h.Count)
		line(h.Name+".sum", h.Sum)
		if h.Count > 0 {
			line(h.Name+".p50", uint64(h.Quantile(0.50)))
			line(h.Name+".p99", uint64(h.Quantile(0.99)))
		}
		for _, b := range h.Buckets {
			if b.Inf {
				line(h.Name+".le.inf", b.Count)
			} else {
				line(h.Name+".le."+strconv.FormatUint(b.UpperBound, 10), b.Count)
			}
		}
	}
	return firstErr
}
