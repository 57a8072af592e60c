// Package bench is the measurement harness that regenerates every table
// and figure of the paper's evaluation (Section 6): workload
// construction, the throughput measurement, and the experiment drivers
// for Figure 8, Table 2, Figures 9(a)/9(b), Figures 10(a)/10(b),
// Figure 11 and the Section 1 DPI-slowdown observation, plus ablations
// of this implementation's design choices.
//
// Every paper figure measures one thing, MeasureEngine: a core.Engine
// per middlebox set or merged set, fed runs of ScanRun packets through
// Engine.InspectBatch — the lane-interleaved scan pipeline.Scanner runs
// in the deployed instance. MeasureAutomaton, the raw-automaton scan,
// serves only the ablations that compare automaton representations.
// The cmd/dpibench binary prints the results in the paper's layout;
// EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"
	"runtime"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
)

// Result is one throughput measurement.
type Result struct {
	Name     string
	Patterns int
	States   int
	MemBytes int64
	Bytes    int64
	Packets  int64
	Elapsed  time.Duration
	// Matches is the pattern matches this measurement found.
	Matches uint64
	// Allocs is the heap-allocation count of the whole measurement loop
	// (runtime mallocs delta), so AllocsPerOp covers harness overhead
	// too; the hot-path guarantee proper is asserted by
	// core.TestInspectMetricsAllocFree.
	Allocs uint64
	// Metrics is what the engine's observability registry recorded
	// during this measurement (counters and histograms since it began;
	// gauges as it ended); nil for raw-automaton measurements.
	Metrics *obs.Snapshot
}

// ThroughputMbps returns the measured scan rate in megabits per second
// (the unit of the paper's figures).
func (r Result) ThroughputMbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / 1e6 / r.Elapsed.Seconds()
}

// MBps returns the scan rate in megabytes per second.
func (r Result) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// NsPerOp returns nanoseconds per inspected packet.
func (r Result) NsPerOp() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Elapsed.Nanoseconds()) / float64(r.Packets)
}

// AllocsPerOp returns heap allocations per inspected packet.
func (r Result) AllocsPerOp() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Allocs) / float64(r.Packets)
}

// mallocs reads the process-wide cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("%s: %d patterns, %.1f MB, %.0f Mbps",
		r.Name, r.Patterns, float64(r.MemBytes)/1e6, r.ThroughputMbps())
}

// MeasureAutomaton scans the corpus `repeat` times through a raw
// automaton, one packet after another, and reports throughput. No
// daemon scans this way; it serves the ablations that compare automaton
// representations with each other.
func MeasureAutomaton(name string, a mpm.Automaton, corpus [][]byte, repeat int) Result {
	r := Result{Name: name, Patterns: a.NumPatterns(), States: a.NumStates(), MemBytes: a.MemoryBytes()}
	emit := func(refs []mpm.PatternRef, end int) { r.Matches += uint64(len(refs)) }
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < repeat; i++ {
		state := a.Start()
		for _, p := range corpus {
			state = a.Scan(p, state, mpm.AllSets, emit)
			r.Bytes += int64(len(p))
		}
	}
	r.Elapsed = time.Since(start)
	r.Allocs = mallocs() - m0
	r.Packets = int64(repeat) * int64(len(corpus))
	return r
}

// ScanRun is how many packets one InspectBatch call of MeasureEngine
// scans per worker. It was set to the frames one receive batch handed
// the deployed instance's pipeline.Scanner when the benchmark module
// measured wire.frames_per_batch_in at 13.2 on multi-tenant and 13.4 on
// attack-dense (benchmark/README.md). The deployed runs are longer now:
// the instance's core.batch_group_size, the packets per InspectBatch
// run, averaged 37.8 on multi-tenant, 39.6 on attack-dense, 32.6 on
// http-mtu and 30.9 on small-pkt (one 10 s run each, seed 7, 2-CPU VM).
// The value stays until the paper's figures are re-based on the
// deployed run length, which moves every one of them; wire.HoldFrames
// (64) is the bound the Scanner never exceeds.
const ScanRun = 13

// MeasureEngine pushes the corpus `repeat` times through a DPI service
// instance under one chain tag, the flow tuples rotating across nFlows,
// and reports throughput. It scans the way the deployed instance does:
// Engine.InspectBatch over consecutive runs of ScanRun×workers packets
// (so each of the workers streams runs of ScanRun through its DFA
// lanes), each packet with its own reusable report buffer. workers = 1
// is pipeline.Scanner's call; more fan each run out across goroutines.
// Matches and Metrics count this measurement only, not what the engine
// saw before it.
func MeasureEngine(name string, e *core.Engine, tag uint16, corpus [][]byte, nFlows, repeat, workers int) Result {
	workers = max(workers, 1)
	return measureRuns(name, e, tag, corpus, nFlows, repeat, func(items []core.BatchItem) {
		scanPass(e, items, workers)
	})
}

// scanPass is one MeasureEngine pass over items.
func scanPass(e *core.Engine, items []core.BatchItem, workers int) {
	n := ScanRun * workers
	for lo := 0; lo < len(items); lo += n {
		e.InspectBatch(items[lo:min(lo+n, len(items))], workers)
	}
}

// engineItems builds the batch items MeasureEngine scans: one per
// corpus packet, tuples rotating over benchTuples(nFlows), each with
// its own report buffer so the matched path allocates nothing after
// the first pass.
func engineItems(tag uint16, corpus [][]byte, nFlows int) []core.BatchItem {
	tuples := benchTuples(nFlows)
	reps := make([]packet.Report, len(corpus))
	items := make([]core.BatchItem, len(corpus))
	for j, p := range corpus {
		items[j] = core.BatchItem{Tag: tag, Tuple: tuples[j%nFlows], Payload: p, Buf: &reps[j]}
	}
	return items
}

// measureRuns times `repeat` calls of pass over the engine items of the
// corpus and reports what the engine recorded meanwhile. An item left
// with an error means the harness is misconfigured (an unknown tag), so
// it panics rather than report a scan that did not happen.
func measureRuns(name string, e *core.Engine, tag uint16, corpus [][]byte, nFlows, repeat int, pass func(items []core.BatchItem)) Result {
	r := Result{Name: name, Patterns: e.NumPatterns(), States: e.NumStates(), MemBytes: e.MemoryBytes()}
	items := engineItems(tag, corpus, nFlows)
	for _, p := range corpus {
		r.Bytes += int64(len(p))
	}
	r.Bytes *= int64(repeat)
	matches0, met0 := e.Snapshot().Matches, e.Metrics().Snapshot()
	// Collect the garbage of building the engine and the corpus now, so
	// no GC cycle it triggers runs on the measured clock.
	runtime.GC()
	m0 := mallocs()
	start := time.Now()
	for i := 0; i < repeat; i++ {
		pass(items)
	}
	r.Elapsed = time.Since(start)
	r.Allocs = mallocs() - m0
	r.Packets = int64(repeat) * int64(len(items))
	for i := range items {
		if items[i].Err != nil {
			panic(items[i].Err)
		}
	}
	r.Matches = e.Snapshot().Matches - matches0
	r.Metrics = e.Metrics().Snapshot().Since(met0)
	return r
}

// benchTuples builds the harness's canonical nFlows five-tuples.
func benchTuples(nFlows int) []packet.FiveTuple {
	tuples := make([]packet.FiveTuple, nFlows)
	for i := range tuples {
		tuples[i] = packet.FiveTuple{
			Src:      packet.IP4{10, 0, byte(i >> 8), byte(i)},
			Dst:      packet.IP4{10, 0, 0, 2},
			SrcPort:  uint16(1024 + i),
			DstPort:  80,
			Protocol: packet.IPProtoTCP,
		}
	}
	return tuples
}

// minMbps returns the lower of two results' throughputs — the
// sustainable rate of a pipeline whose every packet crosses both
// (Figure 9's "two separate middleboxes" baseline).
func minMbps(a, b Result) float64 {
	ta, tb := a.ThroughputMbps(), b.ThroughputMbps()
	if ta < tb {
		return ta
	}
	return tb
}
