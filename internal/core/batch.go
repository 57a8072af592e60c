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
// persistent worker-pool variant. No daemon runs Pool: the wire data
// plane calls InspectBatch with one worker, and Pool goes when the
// benchmark module's core.pool_ns_per_pkt row, its last caller, does.
// Both lean on Inspect being re-entrant (sharded flow table, pooled
// scratch), so one engine reproduces the paper's "k VMs = k engines"
// scaling in-process (Section 6.2, Figure 8).

// BatchItem couples one packet with its result slot for InspectBatch.
type BatchItem struct {
	Tag     uint16
	Tuple   packet.FiveTuple
	Payload []byte
	// Buf, when set, is report storage the caller owns and reuses from
	// call to call: a matched packet's report is moved into it (Report ==
	// Buf on return) instead of being copied, so a caller that encodes
	// and drops reports allocates nothing once Buf has grown. Left nil,
	// Report is a fresh copy.
	Buf *packet.Report
	// Report and Err are filled by InspectBatch; Report is nil when
	// nothing matched.
	Report *packet.Report
	Err    error
}

// maxRun bounds the packets one lane scheduler run takes: the wire data
// plane's own run bound (wire.HoldFrames), long enough that the
// narrowing tail of a run is a small share of it.
const maxRun = 64

// InspectBatch scans every item, using up to workers goroutines
// (workers <= 0 selects GOMAXPROCS). The items are cut into runs — one
// per worker, of at least mpm.LaneWidth and at most 64 items — which the
// workers claim in order and complete in any order: callers feeding
// stateful chains must keep a flow's packets in separate batches (or a
// single-worker batch) when stream order matters.
//
// When the engine's automaton supports it (AutoFull, the default), a run
// is streamed through mpm.LaneWidth lockstep DFA walks, stateless and
// stateful packets alike, so one walk's cache miss overlaps the others'
// work instead of stalling the worker (inspectRun).
//
// With workers == 1 the call stays on the caller's goroutine and scans
// the runs in slice order, so a flow's packets keep stream order; that
// is the wire data plane's entry (internal/pipeline). Every run feeds
// core.scan_ns (one observation per packet) and core.batch_group_size.
func (e *Engine) InspectBatch(items []BatchItem, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := min(max((len(items)+workers-1)/workers, mpm.LaneWidth), maxRun)
	numRuns := (len(items) + run - 1) / run
	if workers > numRuns {
		workers = numRuns
	}
	if workers <= 1 {
		for lo := 0; lo < len(items); lo += run {
			e.inspectRunTimed(items[lo:min(lo+run, len(items))])
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
				lo := (int(next.Add(1)) - 1) * run
				if lo >= len(items) {
					return
				}
				e.inspectRunTimed(items[lo:min(lo+run, len(items))])
			}
		}()
	}
	wg.Wait()
}

// inspectRun scans one run of items in arrival order — the lane
// scheduler. Up to mpm.LaneWidth scans are in flight: each is prepared
// when a slot takes it, its DFA stage advances in lockstep with the
// others' (auto.Advance), and the moment its packet ends it is
// finished and the slot takes the next item, so slots stay full across
// ragged packet lengths and at most LaneWidth scratches and flow
// check-outs are live.
//
// Stateful items ride the lanes like stateless ones. An item whose flow
// is checked out waits at the head of the queue, and the items behind it
// with it, so every flow's packets are scanned in arrival order with the
// state handed from one to the next. If the scan holding the flow is in
// one of this run's own slots, advancing the slots ends the wait; if
// another goroutine holds it, the run first completes and checks in
// everything it has in flight and only then yields and retries, so no
// run ever waits while it holds a check-out.
//
//dpi:hotpath
func (e *Engine) inspectRun(items []BatchItem) {
	if e.auto == nil || len(items) == 1 {
		for i := range items {
			it := &items[i]
			it.Report, it.Err = e.inspectOne(it.Tag, it.Tuple, it.Payload, it.Buf)
		}
		return
	}
	var (
		ls  mpm.Lanes
		scr [mpm.LaneWidth]*scratch   // slot k's scan
		dst [mpm.LaneWidth]*BatchItem // and the item it answers
		// The head of the queue while its flow is checked out: given a
		// scratch once, prepared until it succeeds.
		head *scratch
	)
	for q := 0; ; {
		for ls.Len() < mpm.LaneWidth && q < len(items) {
			it := &items[q]
			it.Report, it.Err = nil, nil
			chain, ok := e.chains[it.Tag]
			if !ok {
				//dpi:coldalloc(error branch: unknown chain tags are a config bug, not traffic)
				it.Err = &UnknownChainError{Tag: it.Tag}
				q++
				continue
			}
			if head == nil {
				head = e.scratchPool.Get().(*scratch)
			}
			if !e.prepare(chain, it.Tuple, it.Payload, head) {
				break
			}
			s := head
			head = nil
			q++
			if s.ps.limit == 0 {
				it.Report = e.finish(s, it.Buf)
				e.scratchPool.Put(s)
				continue
			}
			scr[ls.Len()], dst[ls.Len()] = s, it
			ls.Put(mpm.Lane{Data: s.ps.scanData[:s.ps.limit], State: s.ps.state, Active: chain.mask, Emit: s.emitFn})
		}
		if ls.Len() == 0 {
			if q == len(items) {
				return
			}
			// Nothing of ours in flight, so the head's flow is checked
			// out by another goroutine, a DFA walk away from its finish.
			runtime.Gosched()
			continue
		}
		e.auto.Advance(&ls)
		for k := 0; k < ls.Len(); {
			if !ls.Done(k) {
				k++
				continue
			}
			s := scr[k]
			s.ps.state = ls.State(k)
			e.met.bytesScanned.Add(uint64(s.ps.limit))
			dst[k].Report = e.finish(s, dst[k].Buf)
			e.scratchPool.Put(s)
			ls.Drop(k)
			scr[k], dst[k] = scr[ls.Len()], dst[ls.Len()]
		}
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
// controller-pushed hot swaps apply without restarting the pool. Its
// only caller is benchmark/layers.go:223.
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
