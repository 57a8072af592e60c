package core

import (
	"sync"
	"sync/atomic"

	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// The shard lock and a flow's lock are never held together today (flow
// returns the state after releasing the shard); the declared order pins
// the only acceptable nesting should one ever appear. Neither lock spans
// a DFA traversal: the shard's covers a hash lookup, a flow's the copy
// of its scan state out to a scan or back in (see flowState).
//
//dpi:lockorder(core.flowShard.mu < core.flowState.mu)

// flowShard is one slice of the sharded flow table. The shard lock
// guards only the map and the LRU clock — never a scan — so the time a
// packet holds it is a hash lookup, not a DFA traversal.
type flowShard struct {
	mu sync.Mutex
	//dpi:guardedby(mu)
	flows map[packet.FiveTuple]*flowState
	//dpi:guardedby(mu)
	useSeq   uint64 // logical clock for LRU eviction
	maxFlows int    // immutable after NewEngine
	// scans counts packets routed to this shard (core.shard.NNN.scans)
	// — the skew monitor for the FastHash distribution. Set once in
	// NewEngine.
	scans *obs.Counter
}

type flowState struct {
	// A flow's DFA state must advance in packet order, so one stateful
	// scan at a time owns it — by check-out, not by holding mu across the
	// walk: prepare takes mu to copy state and offset out and set
	// scanning, the scan runs with no lock held, and finish takes mu to
	// store them back and clear scanning. A scan that finds scanning set
	// does not wait on mu; it tries again once the owner has checked in.
	// Nobody therefore holds two flows' locks, however many flows a
	// goroutine has checked out (the lane scheduler: up to
	// mpm.LaneWidth). Stateless chains never take mu.
	mu sync.Mutex
	//dpi:guardedby(mu)
	scanning bool
	//dpi:guardedby(mu)
	state mpm.State
	//dpi:guardedby(mu)
	foldState mpm.State
	//dpi:guardedby(mu)
	foldStarted bool
	//dpi:guardedby(mu)
	offset int64
	//dpi:guardedby(mu)
	lastUsed uint64 // the guarding mu is the owning shard's, not the flow's
	// MCA² telemetry (Section 4.3.1), updated outside the locks.
	bytes   atomic.Uint64
	matches atomic.Uint64
}

// flow returns the state record for tuple, creating (and possibly
// evicting) as needed. The returned pointer stays valid even if the
// entry is evicted mid-scan; the replacement simply restarts clean.
//
//dpi:hotpath
func (sh *flowShard) flow(e *Engine, tuple packet.FiveTuple) *flowState {
	sh.mu.Lock()
	fs, ok := sh.flows[tuple]
	if !ok {
		if len(sh.flows) >= sh.maxFlows {
			sh.evictFlow(e)
		}
		start := mpm.State(0)
		if e.auto != nil {
			start = e.auto.Start()
		}
		// Not recycled through a freelist on purpose: an evicted
		// flowState may still be referenced by an in-flight scan (see
		// the contract above), so reuse would alias live state.
		//dpi:coldalloc(once per new flow, amortized across the flow's packets)
		fs = &flowState{state: start}
		sh.flows[tuple] = fs
	}
	sh.useSeq++
	fs.lastUsed = sh.useSeq
	sh.mu.Unlock()
	if ok {
		e.met.flowHits.Inc()
	} else {
		e.met.flowMisses.Inc()
		e.met.flowsActive.Add(1)
	}
	return fs
}

// evictFlow removes the least recently used among a small random sample
// of the shard's flows — an O(1) approximation of LRU adequate for a
// table whose entries are tiny (a DFA state and an offset, the paper's
// point about instance state in Section 4.3). Caller holds sh.mu.
//
//dpi:hotpath
//dpi:locked(mu)
func (sh *flowShard) evictFlow(e *Engine) {
	var victim packet.FiveTuple
	var oldest uint64 = ^uint64(0)
	n := 0
	for t, fs := range sh.flows {
		if fs.lastUsed < oldest {
			oldest = fs.lastUsed
			victim = t
		}
		n++
		if n >= 8 {
			break
		}
	}
	if n > 0 {
		delete(sh.flows, victim)
		e.met.flowsEvicted.Inc()
		e.met.flowsActive.Add(-1)
		e.fl.Record(trace.EvFlowEvict, victim.FastHash(), oldest)
	}
}
