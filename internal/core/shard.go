package core

import (
	"sync"

	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// flowWays is the flow table's associativity: a flow lives in one of
// the flowWays ways of the bucket its FastHash selects.
const flowWays = 8

// flowEntry is one tracked flow, stored inline in its bucket: 48 bytes
// (a 13-byte key, the fold flag, two DFA states, the stream offset and
// the MCA² counters). The zero value is never read as a flow: a way is
// occupied only while its bucket tag is non-zero.
type flowEntry struct {
	//dpi:guardedby(mu)
	key packet.FiveTuple
	//dpi:guardedby(mu)
	foldStarted bool
	//dpi:guardedby(mu)
	state mpm.State
	//dpi:guardedby(mu)
	foldState mpm.State
	//dpi:guardedby(mu)
	offset int64
	// MCA² telemetry (Section 4.3.1).
	//dpi:guardedby(mu)
	bytes uint64
	//dpi:guardedby(mu)
	matches uint64
}

// flowBucket is one set of the flow table: a one-cache-line header that
// a lookup, an admission and an eviction decide from, then the ways'
// entries. 448 bytes, so buckets in the table's page-aligned array start
// on cache-line boundaries. Every field is guarded by the owning
// shard's mu.
type flowBucket struct {
	// tag is each way's key fingerprint (FastHash's top bits, never
	// zero); 0 marks an empty way.
	//dpi:guardedby(mu)
	tag [flowWays]uint16
	// used is the shard clock at each way's last lookup.
	//dpi:guardedby(mu)
	used [flowWays]uint32
	// busy has bit w set while way w is checked out to a stateful scan.
	//dpi:guardedby(mu)
	busy uint8
	_    [15]byte
	//dpi:guardedby(mu)
	ent [flowWays]flowEntry
}

// flowShard is one slice of the sharded flow table. The shard lock
// covers one bucket lookup plus the copy of a flow's scan state in or
// out — never a scan — so packets of different flows contend for
// nanoseconds, and only within a shard.
//
// A stateful flow's DFA state must advance in packet order, so one scan
// at a time owns it, by check-out: prepare (acquire) copies state and
// offset out and sets the way's busy bit, the scan runs with no lock
// held, and finish (release) stores them back and clears the bit. A
// scan that finds its flow busy does not wait on the lock; it tries
// again once the owner has checked in. A busy way is never evicted or
// reused, so check-in always finds its own entry; EndFlow on a busy way
// clears the tag and check-in then stores nothing. Stateless chains take
// no check-out.
type flowShard struct {
	mu sync.Mutex
	// buckets is this shard's slice of the engine's one table; the
	// slice header is immutable after NewEngine, its contents guarded.
	buckets []flowBucket
	//dpi:guardedby(mu)
	clock uint32 // logical clock for LRU eviction, one tick per lookup
	//dpi:guardedby(mu)
	flows    int // occupied ways
	maxFlows int // immutable after NewEngine
	// scans counts packets routed to this shard (core.shard.NNN.scans)
	// — the skew monitor for the FastHash distribution. Set once in
	// NewEngine.
	scans *obs.Counter
}

// flowTag is tuple hash h's bucket fingerprint: its top 16 bits, forced
// non-zero. The shard index uses the low bits and the bucket index bits
// 16–47, so the three are independent.
func flowTag(h uint64) uint16 { return uint16(h>>48) | 1 }

// bucket returns the bucket tuple hash h maps to within the shard.
func (sh *flowShard) bucket(h uint64) *flowBucket {
	return &sh.buckets[uint64(uint32(h>>16))*uint64(len(sh.buckets))>>32]
}

// find returns the way of b holding tuple, or -1.
//
//dpi:hotpath
//dpi:locked(mu)
func (b *flowBucket) find(tag uint16, tuple packet.FiveTuple) int {
	for w := range flowWays {
		if b.tag[w] == tag && b.ent[w].key == tuple {
			return w
		}
	}
	return -1
}

// acquire locates ps.tuple's entry for a scan about to start, admitting
// the flow on a miss, and on a stateful chain checks it out: its scan
// state is copied into ps and the way marked busy. It returns false,
// having changed and counted nothing, when the flow is already checked
// out. When every way of the bucket is checked out the flow is not
// stored (ps.way = -1) and the packet scans from the start state.
//
//dpi:hotpath
func (sh *flowShard) acquire(e *Engine, h uint64, ps *pscan) bool {
	b, tag := sh.bucket(h), flowTag(h)
	checkOut := ps.chain.anyStateful
	sh.mu.Lock()
	w := b.find(tag, ps.tuple)
	hit, grew := w >= 0, false
	busy := hit && checkOut && b.busy&(1<<w) != 0
	if !hit {
		w, grew = sh.admit(e, b, tag, ps.tuple)
	}
	if w >= 0 && !busy {
		sh.clock++
		b.used[w] = sh.clock
		if checkOut {
			b.busy |= 1 << w
			ent := &b.ent[w]
			ps.state, ps.offset = ent.state, ent.offset
			if ent.foldStarted {
				ps.foldState = ent.foldState
			}
		}
	}
	sh.mu.Unlock()
	if busy {
		return false
	}
	ps.sh, ps.bucket, ps.way = sh, b, w
	sh.scans.Inc()
	switch {
	case hit:
		e.met.flowHits.Inc()
	case w < 0:
		e.met.flowMisses.Inc()
		e.met.flowsUnstored.Inc()
	default:
		e.met.flowMisses.Inc()
		if grew {
			e.met.flowsActive.Add(1)
		}
	}
	return true
}

// admit stores tuple in a way of b and returns it, with grew set when
// the shard gained a flow: an empty way while the shard is under its
// cap, otherwise the least recently used way not checked out, whose
// flow is evicted. The choice depends only on the shard's lookup
// sequence, so eviction is reproducible. It returns -1 when no way is
// free to take: all are checked out, or the shard is at its cap and
// every way not checked out is empty.
//
//dpi:hotpath
//dpi:locked(mu)
func (sh *flowShard) admit(e *Engine, b *flowBucket, tag uint16, tuple packet.FiveTuple) (way int, grew bool) {
	way = -1
	var oldest uint32
	for w := range flowWays {
		switch {
		case b.busy&(1<<w) != 0:
		case b.tag[w] == 0:
			if sh.flows < sh.maxFlows {
				way, grew = w, true
			}
		case way < 0 || sh.clock-b.used[w] > oldest:
			way, oldest = w, sh.clock-b.used[w]
		}
		if grew {
			break
		}
	}
	if way < 0 {
		return -1, false
	}
	if grew {
		sh.flows++
	} else {
		vh := b.ent[way].key.FastHash()
		e.met.flowsEvicted.Inc()
		e.fl.Record(trace.EvFlowEvict, vh, vh&e.shardMask)
	}
	b.tag[way] = tag
	b.ent[way] = flowEntry{key: tuple, state: e.start}
	return way, grew
}

// release ends a scan's hold on the entry acquire gave it: a checked-out
// flow's scan state (ps.state, ps.foldState, ps.offset, already advanced
// past this packet) is stored back and the check-out cleared, and the
// packet's bytes and matches are added to the entry — only if it still
// holds the scan's flow, so telemetry never lands on a way's new
// occupant.
//
//dpi:hotpath
func (sh *flowShard) release(ps *pscan, fold bool, n, matches uint64) {
	b, w := ps.bucket, ps.way
	if w < 0 {
		return
	}
	stateful := ps.chain.anyStateful
	sh.mu.Lock()
	if stateful {
		b.busy &^= 1 << w
	}
	if ent := &b.ent[w]; b.tag[w] != 0 && ent.key == ps.tuple {
		if stateful {
			ent.state, ent.offset = ps.state, ps.offset
			if fold {
				ent.foldState, ent.foldStarted = ps.foldState, true
			}
		}
		ent.bytes += n
		ent.matches += matches
	}
	sh.mu.Unlock()
}

// end forgets tuple's entry, reporting whether it was tracked. A
// checked-out way keeps its busy bit, so it stays unused until its scan
// checks in, which then stores nothing.
func (sh *flowShard) end(h uint64, tuple packet.FiveTuple) bool {
	b := sh.bucket(h)
	sh.mu.Lock()
	w := b.find(flowTag(h), tuple)
	if w >= 0 {
		b.tag[w] = 0
		sh.flows--
	}
	sh.mu.Unlock()
	return w >= 0
}

// walk calls fn with every tracked flow's telemetry under the shard
// lock.
func (sh *flowShard) walk(fn func(FlowStat)) {
	sh.mu.Lock()
	for i := range sh.buckets {
		b := &sh.buckets[i]
		for w := range flowWays {
			if b.tag[w] != 0 {
				ent := &b.ent[w]
				fn(FlowStat{Tuple: ent.key, Bytes: ent.bytes, Matches: ent.matches})
			}
		}
	}
	sh.mu.Unlock()
}
