package middlebox

import (
	"sync"
	"sync/atomic"
	"time"

	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// LossPolicy selects a consumer middlebox's degraded mode when DPI
// results stop arriving (a dead, crashed or partitioned DPI instance):
// every ECN-marked data packet promises a result packet, so a pairing
// buffer that only ages means the instance is gone.
type LossPolicy int32

const (
	// FailOpen forwards timed-out packets unscanned (counted in
	// Unscanned) — the monitoring posture: an IDS prefers passing
	// traffic it could not inspect over an outage.
	FailOpen LossPolicy = iota
	// FailClosed drops timed-out packets (counted in DroppedUnscanned) —
	// the enforcing posture: an IPS, AV or L7 firewall must not let
	// unscanned traffic through.
	FailClosed
)

// PolicyFromFailMode maps a ctlproto Register.FailMode string onto a
// LossPolicy; anything but "fail-open" is the safe FailClosed.
func PolicyFromFailMode(mode string) LossPolicy {
	if mode == "fail-open" {
		return FailOpen
	}
	return FailClosed
}

// Logic is the middlebox-internal rule logic that consumes DPI results:
// "The DPI service responsibility is only to indicate appearances of
// patterns, while resolving the logic behind a condition and performing
// the action itself is the middlebox's responsibility" (Section 4.1).
type Logic interface {
	// OnResult is invoked with the middlebox's section of a match
	// report (nil when the packet had no matches for this middlebox)
	// and the data frame (nil for a read-only middlebox in result-only
	// mode). It returns false to drop the packet (an IPS action).
	OnResult(tuple packet.FiveTuple, entries []packet.Entry, frame []byte) (forward bool)
}

// ConsumerNode is a middlebox that consumes DPI-service results instead
// of scanning: the paper's sample virtual middlebox application
// (Section 6.1). It pairs each ECN-marked data packet with the result
// packet that follows it (by IPv4 ID), invokes its Logic, and forwards
// both onward so downstream chain members can do the same.
type ConsumerNode struct {
	hostIface
	Set   uint8 // pattern-set index assigned at registration
	Logic Logic
	// StripShim marks the last middlebox of an inline-results chain
	// (Section 4.2, option 1): it removes the report shim and forwards
	// the original packet, re-tagged so the egress rule still matches.
	StripShim bool

	mu      sync.Mutex
	waiting map[uint32]pending // IPID -> data frame awaiting its result
	order   []uint32           // FIFO of waiting keys for bounded memory

	// policy is the degraded mode applied to packets whose results never
	// arrive (buffer overflow, or janitor timeout when armed via
	// SetLossPolicy). Defaults to FailOpen, the pre-failover behavior.
	policy atomic.Int32

	// Counters.
	DataPackets   atomic.Uint64
	ResultPackets atomic.Uint64
	RulesReported atomic.Uint64
	Dropped       atomic.Uint64
	Unpaired      atomic.Uint64
	// Unscanned counts packets forwarded without results under FailOpen;
	// DroppedUnscanned counts packets discarded under FailClosed. Both
	// only move while the DPI service is failing this middlebox.
	Unscanned        atomic.Uint64
	DroppedUnscanned atomic.Uint64

	// Flight is the optional flight recorder: every degraded packet
	// (forwarded or dropped unscanned) is recorded so a post-mortem
	// dump shows which flows lost coverage during a failover. Set once
	// before traffic.
	Flight *trace.Flight
}

type pending struct {
	frame []byte
	tuple packet.FiveTuple
	at    time.Time
}

// maxWaiting bounds the pairing buffer; an overflow forwards the oldest
// frame without results (fail-open).
const maxWaiting = 1024

// hostIface is the part of *netsim.Host the nodes use; tests may supply
// fakes.
type hostIface interface {
	SetHandler(func([]byte))
	Send([]byte) bool
	Name() string
}

// NewConsumerNode wraps a host into a result-consuming middlebox for
// the given pattern set.
func NewConsumerNode(host hostIface, set uint8, logic Logic) *ConsumerNode {
	n := &ConsumerNode{hostIface: host, Set: set, Logic: logic, waiting: make(map[uint32]pending)}
	host.SetHandler(n.handleFrame)
	return n
}

func (n *ConsumerNode) handleFrame(frame []byte) {
	var sum packet.Summary
	if err := packet.Summarize(frame, &sum); err != nil {
		n.Send(frame)
		return
	}
	if sum.IsReport {
		n.handleReport(frame, sum.Payload, sum.VLANID)
		return
	}
	n.DataPackets.Add(1)
	if !sum.ECNMarked {
		// No result packet follows: process immediately with no
		// matches.
		n.finish(sum.Tuple, nil, frame)
		return
	}
	// Marked: hold until the result packet arrives.
	n.mu.Lock()
	key := uint32(sum.IPID)
	var evicted pending
	hasEvicted := false
	if len(n.waiting) >= maxWaiting {
		evicted, hasEvicted = n.evictOldestLocked()
	}
	n.waiting[key] = pending{frame: frame, tuple: sum.Tuple, at: time.Now()}
	n.order = append(n.order, key)
	n.mu.Unlock()
	// Degrade outside the lock: it forwards or drops a frame, which
	// must never run under mu. Handing the evicted entry out (instead
	// of the old unlock-degrade-relock dance inside evictOldestLocked)
	// keeps the critical section contiguous, so the capacity check and
	// the insert can no longer interleave with another handleFrame.
	if hasEvicted {
		n.degrade(evicted)
	}
}

// evictOldestLocked pops the oldest live entry from the pairing buffer
// and returns it for the caller to degrade after releasing mu.
//
//dpi:locked(mu)
func (n *ConsumerNode) evictOldestLocked() (pending, bool) {
	for len(n.order) > 0 {
		k := n.order[0]
		n.order = n.order[1:]
		if p, ok := n.waiting[k]; ok {
			delete(n.waiting, k)
			n.Unpaired.Add(1)
			return p, true
		}
	}
	return pending{}, false
}

// LossPolicyValue reports the node's current degraded mode.
func (n *ConsumerNode) LossPolicyValue() LossPolicy { return LossPolicy(n.policy.Load()) }

// SetLossPolicy sets the degraded mode and, when resultTimeout > 0,
// starts a janitor that applies it to buffered data packets whose
// result packet has not arrived within resultTimeout — the signal that
// the DPI instance on this chain died with packets in flight. The
// returned stop function halts the janitor (idempotent).
func (n *ConsumerNode) SetLossPolicy(p LossPolicy, resultTimeout time.Duration) (stop func()) {
	n.policy.Store(int32(p))
	if resultTimeout <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	interval := resultTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				n.flushAged(time.Now().Add(-resultTimeout))
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// flushAged applies the loss policy to every buffered pair older than
// cutoff.
func (n *ConsumerNode) flushAged(cutoff time.Time) {
	n.mu.Lock()
	var aged []pending
	for len(n.order) > 0 {
		k := n.order[0]
		p, ok := n.waiting[k]
		if !ok {
			n.order = n.order[1:]
			continue
		}
		if p.at.After(cutoff) {
			break // FIFO: everything behind is younger
		}
		delete(n.waiting, k)
		n.order = n.order[1:]
		aged = append(aged, p)
	}
	n.mu.Unlock()
	for _, p := range aged {
		n.degrade(p)
	}
}

// degrade disposes of one data packet whose result is not coming.
func (n *ConsumerNode) degrade(p pending) {
	if n.LossPolicyValue() == FailClosed {
		n.DroppedUnscanned.Add(1)
		n.Flight.Record(trace.EvUnscanned, p.tuple.FastHash(), 1)
		return
	}
	n.Flight.Record(trace.EvUnscanned, p.tuple.FastHash(), 0)
	n.finish(p.tuple, nil, p.frame)
	// Counted once forwarded, so a reader that sees the count sees the
	// frame gone too.
	n.Unscanned.Add(1)
}

func (n *ConsumerNode) handleReport(frame, body []byte, tag uint16) {
	n.ResultPackets.Add(1)
	var rep packet.Report
	inner, hasInner, err := SplitInline(body, &rep)
	if err != nil {
		n.Send(frame) // pass malformed reports along untouched
		return
	}
	var entries []packet.Entry
	if sec := rep.SectionFor(n.Set); sec != nil {
		entries = sec.Entries
		for _, e := range sec.Entries {
			n.RulesReported.Add(uint64(e.Count))
		}
	}
	if hasInner {
		// Inline shim frame (Section 4.2, option 1): data and results
		// travel together.
		n.DataPackets.Add(1)
		forward := true
		if n.Logic != nil {
			forward = n.Logic.OnResult(rep.Tuple, entries, inner)
		}
		if !forward {
			n.Dropped.Add(1)
			return
		}
		if n.StripShim {
			// Last middlebox: restore the original packet, keeping
			// the tag for the egress rule.
			bare := RebuildInnerFrame(packet.MAC{}, packet.MAC{}, inner)
			if tagged, err := packet.PushVLAN(bare, tag, 0); err == nil {
				n.Send(tagged)
			}
			return
		}
		n.Send(frame)
		return
	}
	// Pair with the buffered data packet.
	n.mu.Lock()
	p, ok := n.waiting[rep.PacketID]
	if ok {
		delete(n.waiting, rep.PacketID)
	}
	n.mu.Unlock()
	if !ok {
		// Result-only mode, or the data packet was dropped upstream:
		// consume the result standalone.
		if n.Logic != nil {
			n.Logic.OnResult(rep.Tuple, entries, nil)
		}
		n.Send(frame) // pass the result to downstream middleboxes
		return
	}
	forward := n.finish(p.tuple, entries, p.frame)
	if forward {
		// Data was forwarded; send the result right behind it for the
		// next middlebox on the chain.
		n.Send(frame)
	}
}

// finish runs the logic and forwards the data frame unless dropped.
func (n *ConsumerNode) finish(tuple packet.FiveTuple, entries []packet.Entry, frame []byte) bool {
	forward := true
	if n.Logic != nil {
		forward = n.Logic.OnResult(tuple, entries, frame)
	}
	if !forward {
		n.Dropped.Add(1)
		return false
	}
	n.Send(frame)
	return true
}

// PendingPairs reports the number of data packets awaiting results.
func (n *ConsumerNode) PendingPairs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.waiting)
}
