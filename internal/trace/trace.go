// Package trace is the per-flow distributed-tracing and flight-recorder
// layer of the DPI service. It answers the question the aggregate
// counters in package obs cannot: where did one packet's time go as it
// crossed trafficgen -> dpinstance -> mboxd, and what happened in the
// moments before a failure.
//
// Two instruments share one lock-free storage primitive (a sharded ring
// of seqlock slots, see ring.go):
//
//   - Tracer records per-stage spans for *sampled* flows. The sampling
//     decision is made once, at the traffic origin, by a deterministic
//     hash of the flow five-tuple (Sampler); the resulting trace ID and
//     per-flow packet index travel in-band in the wire frames
//     (wire.FlagTrace + the 12-byte trace extension), so spans recorded
//     by different processes stitch into one trace by ID alone — no
//     clock agreement or out-of-band correlation needed.
//
//   - Flight is the always-on flight recorder: a bounded ring of recent
//     rare events (flow evictions, retransmits, lease transitions,
//     failovers, shed/normalization decisions) that costs a few atomic
//     stores per event and can be dumped on demand (/flight) or on test
//     failure.
//
// Both write paths are //dpi:hotpath-safe: no locks, no allocation, no
// clock reads (flight timestamps come from a coarse background Clock).
package trace

import (
	"dpiservice/internal/packet"
)

// Stage identifies one pipeline stage of a traced packet's journey.
type Stage uint8

// Pipeline stages, in path order. Send is the origin-side stage
// (trafficgen queueing the packet on the wire); the five service
// stages follow the packet through the DPI instance and the consuming
// middlebox.
const (
	StageSend       Stage = iota + 1 // origin: queue on the wire
	StageDecode                      // wire receive -> frame decode -> dispatch
	StageReassembly                  // flow admission, stream state, stopping conditions
	StageScan                        // MPM DFA scan + regex confirmation
	StageEncode                      // report encode + result/verdict transmit
	StageConsume                     // middlebox verdict consumption
)

// stageNames indexes Stage. Index 0 is the invalid zero stage.
var stageNames = [...]string{"", "send", "decode", "reassembly", "scan", "encode", "consume"}

// String renders the stage for dumps and logs.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// NumStages is the count of defined pipeline stages.
const NumStages = 6

// splitmix64 is the finalizer used to derive trace IDs and shard
// indexes; one multiply-xor round is enough to decorrelate the flow
// hash from the sampling decision.
//
//dpi:hotpath
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString folds a string into a uint64 (FNV-1a) so cold-path events
// can attach identities (instance IDs) to flight records without
// carrying allocations onto the ring.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Sampler makes the per-flow sampling decision at the traffic origin.
// The decision is a deterministic function of the flow five-tuple, so
// every packet of a flow is either fully traced or not at all, and
// repeated runs with the same base sample the same flows. The zero
// value samples nothing.
type Sampler struct {
	rate uint64 // sample 1-in-rate flows; 0 disables
	base uint64 // run identity mixed into trace IDs
}

// NewSampler samples one in rate flows (rate <= 0 disables sampling
// entirely; rate 1 traces every flow). base distinguishes runs: two
// trafficgen invocations with different bases produce disjoint trace
// IDs for the same flows.
func NewSampler(rate int, base uint64) Sampler {
	if rate <= 0 {
		return Sampler{}
	}
	return Sampler{rate: uint64(rate), base: base}
}

// Enabled reports whether the sampler can ever say yes.
func (s Sampler) Enabled() bool { return s.rate > 0 }

// Sampled reports whether the flow is traced. Deterministic in the
// tuple: both directions of a flow hash identically (FastHash is
// symmetric), so request and response packets land in the same trace.
//
//dpi:hotpath
func (s Sampler) Sampled(t packet.FiveTuple) bool {
	if s.rate == 0 {
		return false
	}
	return splitmix64(t.FastHash()^s.base)%s.rate == 0
}

// TraceID derives the flow's trace identity. Never zero (zero marks an
// empty ring slot and an absent wire extension).
//
//dpi:hotpath
func (s Sampler) TraceID(t packet.FiveTuple) uint64 {
	id := splitmix64(t.FastHash() ^ s.base ^ 0xa5a5a5a5a5a5a5a5)
	if id == 0 {
		id = 1
	}
	return id
}
