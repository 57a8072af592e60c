// Package obs is a dependency-free metrics layer for the DPI service:
// named atomic counters, gauges, and fixed-bucket histograms collected
// in a Registry and exported as sorted snapshots (JSON or expvar-style
// text) for the debug HTTP listener, controller load reports, and the
// dpibench regression reports.
//
// The write path (Counter.Add, Gauge.Set, Histogram.Observe) is
// read-free for collectors: a single atomic RMW per update, no locks,
// no allocation, no clock reads — safe to call from code reachable
// from a //dpi:hotpath root. Instrument lookup (Registry.Counter et
// al.) takes the registry mutex and must happen at setup time; callers
// cache the returned pointer.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use. Counters must not be copied after first use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
//
//dpi:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//dpi:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value (queue depth, active flows).
// The zero value is ready to use. Gauges must not be copied after
// first use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//dpi:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrement).
//
//dpi:hotpath
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets defined by a sorted
// list of inclusive upper bounds, plus an implicit overflow bucket.
// Observe is lock-free and allocation-free: a linear scan over the
// (small, fixed) bound slice and two atomic adds. Histograms must not
// be copied after first use.
type Histogram struct {
	bounds  []uint64 // sorted ascending; immutable after construction
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

func newHistogram(bounds []uint64) *Histogram {
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample of value v.
//
//dpi:hotpath
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v at the cost of one: a batch
// that timed n operations together charges each its mean.
//
//dpi:hotpath
func (h *Histogram) ObserveN(v, n uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// LatencyBounds are histogram upper bounds in nanoseconds, spanning
// 1µs..~67ms in powers of four — sized for per-packet scan and queue
// wait times.
var LatencyBounds = []uint64{
	1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18,
	1 << 20, 1 << 22, 1 << 24, 1 << 26,
}

// SizeBounds are histogram upper bounds in bytes, spanning 64B..64KiB
// in powers of four — sized for packet payload lengths.
var SizeBounds = []uint64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
}

// Registry holds named instruments. Lookup methods get-or-create under
// a mutex; the instruments themselves are updated without the lock.
// The zero value is not usable — call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Call at setup time and cache the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use. Later calls with the same name
// return the existing histogram regardless of bounds.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	r.mu.Unlock()
	return h
}
