package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dpiservice/internal/mpm"
	"dpiservice/internal/packet"
)

// This file is the multi-core data-plane entry points: InspectBatch
// fans a slice of packets across worker goroutines, and Pool is the
// persistent worker-pool variant the instance daemons use. Both lean on
// Inspect being re-entrant (sharded flow table, pooled scratch), so one
// engine reproduces the paper's "k VMs = k engines" scaling in-process
// (Section 6.2, Figure 8).

// BatchItem couples one packet with its result slot for InspectBatch.
type BatchItem struct {
	Tag     uint16
	Tuple   packet.FiveTuple
	Payload []byte
	// Report and Err are filled by InspectBatch; Report is nil when
	// nothing matched.
	Report *packet.Report
	Err    error
}

const (
	// defaultBatchLanes is how many packets one InspectBatch worker
	// advances in lockstep through the DFA when Config.BatchInterleave
	// is unset. Four lanes keep four independent DFA rows in flight per
	// worker, enough to hide most of a row fetch's latency without
	// spilling lane state out of registers.
	defaultBatchLanes = 4
	// maxBatchLanes caps Config.BatchInterleave.
	maxBatchLanes = 8
)

// InspectBatch scans every item, using up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). Items are claimed in order but
// complete in any order: callers feeding stateful chains must keep a
// flow's packets in separate batches (or a single-worker batch) when
// stream order matters.
//
// When the engine's automaton supports it (AutoFull, the default), each
// worker claims a small group of items and advances the stateless ones'
// DFA scans in lockstep, so one lane's cache miss overlaps the other
// lanes' work instead of stalling the worker (Config.BatchInterleave).
//
// With workers == 1 the call stays on the caller's goroutine and scans
// the groups in slice order, so a flow's packets keep stream order; that
// is the wire data plane's entry (internal/pipeline). Every group feeds
// core.scan_ns (one observation per packet) and core.batch_group_size.
func (e *Engine) InspectBatch(items []BatchItem, workers int) {
	g := 1
	if e.acLanes != nil {
		g = e.lanesPer
	}
	numGroups := (len(items) + g - 1) / g
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numGroups {
		workers = numGroups
	}
	if workers <= 1 {
		for lo := 0; lo < len(items); lo += g {
			hi := lo + g
			if hi > len(items) {
				hi = len(items)
			}
			e.inspectGroupTimed(items[lo:hi])
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= numGroups {
					return
				}
				lo := gi * g
				hi := lo + g
				if hi > len(items) {
					hi = len(items)
				}
				e.inspectGroupTimed(items[lo:hi])
			}
		}()
	}
	wg.Wait()
}

// inspectGroup scans one worker's claimed run of items. Stateless-chain
// items are prepared, their DFA stages advanced together through
// acLanes.ScanLanes, then finished one by one. Stateful items are
// scanned solo: prepare holds the flow lock until finish, and two
// packets of one flow landing in the same group must not wait on each
// other's locks mid-group.
//
//dpi:hotpath
func (e *Engine) inspectGroup(items []BatchItem) {
	if e.acLanes == nil || len(items) < 2 {
		for i := range items {
			it := &items[i]
			it.Report, it.Err = e.Inspect(it.Tag, it.Tuple, it.Payload)
		}
		return
	}
	var (
		lanes    [maxBatchLanes]mpm.Lane
		scr      [maxBatchLanes]*scratch
		laneItem [maxBatchLanes]*BatchItem
		nLanes   int
	)
	for i := range items {
		it := &items[i]
		it.Report, it.Err = nil, nil
		chain, ok := e.chains[it.Tag]
		if !ok {
			//dpi:coldalloc(error branch: unknown chain tags are a config bug, not traffic)
			it.Err = &UnknownChainError{Tag: it.Tag}
			continue
		}
		if chain.anyStateful {
			s := e.scratchPool.Get().(*scratch)
			it.Report = e.inspect(chain, it.Tuple, it.Payload, s)
			e.scratchPool.Put(s)
			continue
		}
		s := e.scratchPool.Get().(*scratch)
		e.prepare(chain, it.Tuple, it.Payload, s)
		if s.ps.limit > 0 {
			lanes[nLanes] = mpm.Lane{
				Data:   s.ps.scanData[:s.ps.limit],
				State:  s.ps.state,
				Active: chain.mask,
				Emit:   s.emitFn,
			}
			scr[nLanes] = s
			laneItem[nLanes] = it
			nLanes++
		} else {
			it.Report = e.finish(s)
			e.scratchPool.Put(s)
		}
	}
	if nLanes == 0 {
		return
	}
	e.acLanes.ScanLanes(lanes[:nLanes])
	for k := 0; k < nLanes; k++ {
		s := scr[k]
		s.ps.state = lanes[k].State
		e.met.bytesScanned.Add(uint64(s.ps.limit))
		laneItem[k].Report = e.finish(s)
		e.scratchPool.Put(s)
		lanes[k] = mpm.Lane{}
	}
}

// Job is one packet scan submitted to a Pool. After Wait returns (or
// the job is received from its Done signal), Report and Err are set.
type Job struct {
	Tag     uint16
	Tuple   packet.FiveTuple
	Payload []byte
	Report  *packet.Report
	Err     error
	// Ctx rides along untouched for the submitter's bookkeeping (e.g.
	// the original frame awaiting forwarding).
	Ctx  any
	done chan struct{}
}

// Wait blocks until the job has been scanned.
func (j *Job) Wait() { <-j.done }

// Pool is a persistent worker pool scanning packets against an engine.
// The engine is resolved per job through the provided func, so
// controller-pushed hot swaps apply without restarting the pool.
type Pool struct {
	engine func() *Engine
	jobs   chan *Job
	wg     sync.WaitGroup
}

// NewPool starts workers goroutines (<= 0 selects GOMAXPROCS) feeding
// off a queue of the given depth (<= 0 selects 4x workers).
func NewPool(engine func() *Engine, workers, queue int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if queue <= 0 {
		queue = workers * 4
	}
	p := &Pool{engine: engine, jobs: make(chan *Job, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				// InspectTimed feeds the core.scan_ns histogram; the
				// clock read happens out here in the worker, never on
				// the //dpi:hotpath scan path itself.
				j.Report, j.Err = p.engine().InspectTimed(j.Tag, j.Tuple, j.Payload)
				close(j.done)
			}
		}()
	}
	return p
}

// Submit queues one job; it blocks when the queue is full (natural
// backpressure toward the packet source).
func (p *Pool) Submit(j *Job) {
	if j.done == nil {
		j.done = make(chan struct{})
	}
	p.jobs <- j
}

// Close drains the queue and stops the workers. Submit must not be
// called after (or concurrently with) Close.
func (p *Pool) Close() {
	close(p.jobs)
	p.wg.Wait()
}
