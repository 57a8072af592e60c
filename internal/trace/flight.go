package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies flight-recorder events. Kinds are stable wire
// numbers only within one process lifetime; dumps carry the name.
type EventKind uint8

// Flight-recorder event kinds. Each carries two uint64 arguments whose
// meaning is listed per kind; identities (instance IDs) ride as
// HashString values.
const (
	EvNone           EventKind = iota
	EvFlowEvict                // a=flow tuple hash, b=shard index
	EvStreamEvict              // a=stream key hash, b=streams tracked
	EvReassemblyDrop           // a=drop reason (reassembly-defined), b=seq
	EvShed                     // a=bytes shed, b=stream key hash
	EvRetransmit               // a=frame seq, b=retry count
	EvSessionDead              // a=session token, b=1 if retransmit limit, 0 if idle expiry
	EvLeaseSuspect             // a=HashString(instance id)
	EvLeaseDead                // a=HashString(instance id)
	EvFailover                 // a=chains reassigned, b=chains unassigned
	EvUnscanned                // a=flow tuple hash, b=1 if dropped (fail-closed), 0 if passed
	EvBudgetFallback           // a=datagram budget given up, b=budget fallen back to
)

var eventNames = [...]string{
	"none", "flow_evict", "stream_evict", "reassembly_drop", "shed",
	"retransmit", "session_dead", "lease_suspect", "lease_dead",
	"failover", "unscanned", "budget_fallback",
}

// String renders the kind for dumps and logs.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return "event?"
}

// Event is one decoded flight-recorder record. Seq is a global
// admission order (monotonic per recorder); TsNs is the coarse clock
// reading, zero when the recorder has no clock attached.
type Event struct {
	Seq  uint64
	Kind EventKind
	A    uint64
	B    uint64
	TsNs int64
}

// Clock is a coarse wall clock readable from //dpi:hotpath code: a
// background goroutine refreshes an atomic nanosecond value on a fixed
// resolution, so hot-path readers pay one atomic load instead of a
// banned time.Now call. Nil-receiver reads return 0.
type Clock struct {
	ns   atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

// StartClock launches the updater at the given resolution (<= 0 picks
// 10ms). Stop the clock when its readers are gone.
func StartClock(res time.Duration) *Clock {
	if res <= 0 {
		res = 10 * time.Millisecond
	}
	c := &Clock{done: make(chan struct{})}
	c.ns.Store(time.Now().UnixNano())
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(res)
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.ns.Store(time.Now().UnixNano())
			}
		}
	}()
	return c
}

// Stop halts the updater and joins its goroutine.
func (c *Clock) Stop() {
	close(c.done)
	c.wg.Wait()
}

// Nanos returns the last coarse reading (0 for a nil clock).
//
//dpi:hotpath
func (c *Clock) Nanos() int64 {
	if c == nil {
		return 0
	}
	return c.ns.Load()
}

// Flight is the always-on flight recorder: a fixed window of recent
// rare events held in per-shard lossy rings. Record is nil-receiver
// safe, lock-free and allocation-free, so hooks in hot code (flow
// eviction under the shard lock, retransmission in the wire tick) cost
// a handful of atomic operations when armed and one nil check when not.
type Flight struct {
	node   string
	shards []*ring
	mask   uint64
	seq    atomic.Uint64
	clk    *Clock
}

// DefaultFlightCapacity is the event window when NewFlight is given no
// explicit size: 4 shards x 512 events.
const DefaultFlightCapacity = 2048

// NewFlight builds a recorder identified as node. capacity is the
// total event window (<= 0 selects DefaultFlightCapacity); memory is
// fixed at construction.
func NewFlight(node string, capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	const shards = 4
	per := (capacity + shards - 1) / shards
	f := &Flight{node: node, shards: make([]*ring, shards), mask: shards - 1}
	for i := range f.shards {
		f.shards[i] = newRing(per)
	}
	return f
}

// SetClock attaches the coarse timestamp source. Call before the
// recorder is shared; nil leaves events stamped 0.
func (f *Flight) SetClock(c *Clock) {
	if f != nil {
		f.clk = c
	}
}

// Node returns the identity stamped into this recorder's dumps.
func (f *Flight) Node() string {
	if f == nil {
		return ""
	}
	return f.node
}

// Record appends one event. Safe from any goroutine, never blocks,
// never allocates, never reads the real clock.
//
//dpi:hotpath
func (f *Flight) Record(kind EventKind, a, b uint64) {
	if f == nil || kind == EvNone {
		return
	}
	seq := f.seq.Add(1)
	// Kind rides the top byte of the first word so zero still marks an
	// empty slot (seq starts at 1 and kinds start at 1).
	w0 := uint64(kind)<<56 | seq&(1<<56-1)
	f.shards[seq&f.mask].put(w0, a, b, uint64(f.clk.Nanos()))
}

// Recorded returns the number of events ever recorded.
func (f *Flight) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Capacity returns the fixed event window size.
func (f *Flight) Capacity() int {
	if f == nil {
		return 0
	}
	n := 0
	for _, sh := range f.shards {
		n += sh.capSlots()
	}
	return n
}

// Snapshot copies the current event window in admission order.
// Concurrent with Record; events overwritten mid-read are skipped,
// never returned torn.
func (f *Flight) Snapshot() []Event {
	if f == nil {
		return nil
	}
	var out []Event
	for _, sh := range f.shards {
		sh.snapshot(func(w0, w1, w2, w3 uint64) {
			out = append(out, Event{
				Seq:  w0 & (1<<56 - 1),
				Kind: EventKind(w0 >> 56),
				A:    w1,
				B:    w2,
				TsNs: int64(w3),
			})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
