package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// This file is the fault-injection layer: per-link-direction drop,
// duplication, added delay and partition, plus whole-node crash and
// restart. Faults act at delivery time inside the link goroutines, so
// node and switch implementations stay oblivious — exactly like a
// Mininet experiment pulling a veth down under a live DPI deployment.
// The chaos RNG is explicitly seeded (SetChaosSeed) so CI failure
// schedules are reproducible.

// Fault describes the impairments of one link direction.
type Fault struct {
	// DropProb is the probability in [0,1] that a frame is discarded.
	DropProb float64
	// DupProb is the probability in [0,1] that a frame is delivered
	// twice (duplication happens after the drop decision).
	DupProb float64
	// ReorderProb is the probability in [0,1] that a frame is held back
	// and delivered after its successor on the same direction — a pure
	// transposition, no loss.
	ReorderProb float64
	// ExtraLatency is added to every delivered frame.
	ExtraLatency time.Duration
	// Partition drops every frame, as a severed cable would.
	Partition bool
	// MaxSize, when positive, drops every frame longer than this many
	// bytes and lets the rest through: a path-MTU black hole (a hop that
	// neither fragments nor reports). It draws nothing from the chaos
	// RNG, so adding it to a fault leaves the seeded schedule of the
	// frames that pass unchanged.
	MaxSize int
}

// ChaosStats counts the layer's interventions.
type ChaosStats struct {
	Dropped    uint64 // frames discarded (faults and crashed nodes)
	Duplicated uint64 // extra copies delivered
	Delayed    uint64 // frames held back by ExtraLatency
	Reordered  uint64 // frames swapped with their successor
	Oversize   uint64 // frames discarded for exceeding a fault's MaxSize
}

// chaosState lives inside Network, zero-valued until a fault is
// injected; the maps are created lazily so fault-free fabrics pay only
// a mutex check per delivery.
type chaosState struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[[2]string]Fault // [src,dst] direction
	down   map[string]bool
	stats  ChaosStats
}

// SetChaosSeed seeds the fault RNG; tests call it before injecting
// probabilistic faults so drop schedules are deterministic. The default
// seed is 1.
func (n *Network) SetChaosSeed(seed int64) {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	n.chaos.rng = rand.New(rand.NewSource(seed))
}

// SetLinkFault installs f on the src -> dst direction (node names),
// replacing any previous fault. The reverse direction is untouched;
// call twice for a symmetric impairment.
func (n *Network) SetLinkFault(src, dst string, f Fault) {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	if n.chaos.faults == nil {
		n.chaos.faults = make(map[[2]string]Fault)
	}
	n.chaos.faults[[2]string{src, dst}] = f
}

// ClearLinkFault removes the src -> dst fault.
func (n *Network) ClearLinkFault(src, dst string) {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	delete(n.chaos.faults, [2]string{src, dst})
}

// CrashNode kills the named node: every frame to or from it is dropped
// until RestartNode. The node's goroutines and state are untouched — a
// crashed DPI instance still holds its flow state, mirroring a hung
// process — only its connectivity dies.
func (n *Network) CrashNode(name string) {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	if n.chaos.down == nil {
		n.chaos.down = make(map[string]bool)
	}
	n.chaos.down[name] = true
}

// RestartNode reconnects a crashed node.
func (n *Network) RestartNode(name string) {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	delete(n.chaos.down, name)
}

// NodeDown reports whether the node is currently crashed.
func (n *Network) NodeDown(name string) bool {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	return n.chaos.down[name]
}

// ChaosStats returns a snapshot of the fault layer's intervention
// counters.
func (n *Network) ChaosStats() ChaosStats {
	n.chaos.mu.Lock()
	defer n.chaos.mu.Unlock()
	return n.chaos.stats
}

// chaosVerdict decides one delivery of a size-byte frame: drop it,
// duplicate it, hold it back behind its successor, and/or delay it.
// Called from link goroutines.
func (n *Network) chaosVerdict(src, dst string, size int) (drop, dup, reorder bool, delay time.Duration) {
	c := &n.chaos
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[src] || c.down[dst] {
		c.stats.Dropped++
		return true, false, false, 0
	}
	f, ok := c.faults[[2]string{src, dst}]
	if !ok {
		return false, false, false, 0
	}
	if f.Partition {
		c.stats.Dropped++
		return true, false, false, 0
	}
	if f.MaxSize > 0 && size > f.MaxSize {
		c.stats.Oversize++
		return true, false, false, 0
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(1))
	}
	if f.DropProb > 0 && c.rng.Float64() < f.DropProb {
		c.stats.Dropped++
		return true, false, false, 0
	}
	if f.DupProb > 0 && c.rng.Float64() < f.DupProb {
		dup = true
		c.stats.Duplicated++
	}
	if f.ReorderProb > 0 && c.rng.Float64() < f.ReorderProb {
		reorder = true
		c.stats.Reordered++
	}
	if f.ExtraLatency > 0 {
		c.stats.Delayed++
	}
	return false, dup, reorder, f.ExtraLatency
}

// chaosActive cheaply reports whether any fault or crash is installed,
// letting the delivery path skip the verdict entirely on healthy
// fabrics.
func (n *Network) chaosActive() bool {
	c := &n.chaos
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.faults) > 0 || len(c.down) > 0
}
