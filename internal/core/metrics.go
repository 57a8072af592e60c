package core

import (
	"fmt"
	"runtime"
	"time"

	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
)

// engineMetrics caches the engine's obs instruments. Lookup by name
// happens once, in NewEngine; the hot path touches only the cached
// pointers, so a metric update is a single atomic RMW — no map access,
// no lock, no allocation.
type engineMetrics struct {
	reg *obs.Registry

	packets       *obs.Counter
	bytes         *obs.Counter
	bytesScanned  *obs.Counter
	matches       *obs.Counter
	reports       *obs.Counter
	flowsEvicted  *obs.Counter
	regexConfirms *obs.Counter
	regexHits     *obs.Counter
	flowHits      *obs.Counter
	flowMisses    *obs.Counter
	// flowsUnstored counts misses scanned from the start state without
	// being stored because every way of the flow's bucket was checked
	// out.
	flowsUnstored *obs.Counter

	flowsActive *obs.Gauge

	payloadBytes *obs.Histogram
	scanNs       *obs.Histogram
	groupSize    *obs.Histogram

	// shardScans is indexed parallel to Engine.shards.
	shardScans []*obs.Counter
}

// groupSizeBounds buckets core.batch_group_size, the packets per lane
// scheduler run, 1..maxRun.
var groupSizeBounds = []uint64{1, 2, 4, 8, 16, 32, maxRun}

func newEngineMetrics(reg *obs.Registry, shards int) *engineMetrics {
	m := &engineMetrics{
		reg:           reg,
		packets:       reg.Counter("core.packets"),
		bytes:         reg.Counter("core.bytes"),
		bytesScanned:  reg.Counter("core.bytes_scanned"),
		matches:       reg.Counter("core.matches"),
		reports:       reg.Counter("core.reports"),
		flowsEvicted:  reg.Counter("core.flows_evicted"),
		regexConfirms: reg.Counter("core.regex_confirms"),
		regexHits:     reg.Counter("core.regex_hits"),
		flowHits:      reg.Counter("core.flow_hits"),
		flowMisses:    reg.Counter("core.flow_misses"),
		flowsUnstored: reg.Counter("core.flows_unstored"),
		flowsActive:   reg.Gauge("core.flows_active"),
		payloadBytes:  reg.Histogram("core.payload_bytes", obs.SizeBounds),
		scanNs:        reg.Histogram("core.scan_ns", obs.LatencyBounds),
		groupSize:     reg.Histogram("core.batch_group_size", groupSizeBounds),
	}
	m.shardScans = make([]*obs.Counter, shards)
	for i := range m.shardScans {
		m.shardScans[i] = reg.Counter(fmt.Sprintf("core.shard.%03d.scans", i))
	}
	return m
}

// Metrics returns the engine's metrics registry — the one passed in
// Config.Metrics, or the engine's private registry when none was.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// InspectTimed is Inspect plus a scan-latency observation into the
// core.scan_ns histogram. The clock read lives here, outside the
// //dpi:hotpath-checked scan path, so daemons and worker pools get
// latency telemetry while Inspect itself stays clock-free for callers
// (like dpibench) that measure externally.
func (e *Engine) InspectTimed(tag uint16, tuple packet.FiveTuple, payload []byte) (*packet.Report, error) {
	start := time.Now()
	rep, err := e.Inspect(tag, tuple, payload)
	e.met.scanNs.Observe(uint64(time.Since(start)))
	return rep, err
}

// inspectRunTimed is inspectRun plus the batch path's telemetry: the
// run's length into core.batch_group_size (are runs long enough to keep
// the lanes full?) and one core.scan_ns observation per packet, each
// charged the run's mean. As with InspectTimed, the clock reads live out
// here so the //dpi:hotpath-checked inspectRun stays clock-free.
func (e *Engine) inspectRunTimed(items []BatchItem) {
	start := time.Now()
	e.inspectRun(items)
	n := uint64(len(items))
	e.met.scanNs.ObserveN(uint64(time.Since(start))/n, n)
	e.met.groupSize.Observe(n)
}

// InspectStaged is Inspect with per-stage timing: it reports how long
// the prepare stage (flow admission and check-out, stopping
// conditions — the wire pipeline's "reassembly" stage) and the
// scan stage (DFA traversal plus regex confirmation and flow check-in)
// each took, for span-level tracing. The clock reads live here,
// between the //dpi:hotpath-checked stages, so the checked scan path
// itself stays clock-free and Inspect is unchanged for untraced
// traffic. The combined duration also feeds core.scan_ns.
func (e *Engine) InspectStaged(tag uint16, tuple packet.FiveTuple, payload []byte) (rep *packet.Report, prepareNs, scanNs int64, err error) {
	chain, ok := e.chains[tag]
	if !ok {
		return nil, 0, 0, &UnknownChainError{Tag: tag}
	}
	s := e.scratchPool.Get().(*scratch)
	t0 := time.Now()
	for !e.prepare(chain, tuple, payload, s) {
		runtime.Gosched()
	}
	t1 := time.Now()
	e.walk(s)
	rep = e.finish(s, nil)
	t2 := time.Now()
	e.scratchPool.Put(s)
	e.met.scanNs.Observe(uint64(t2.Sub(t0)))
	return rep, t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds(), nil
}
