// Package netsim is the in-process virtual network substituting for the
// paper's Mininet environment (Section 6.1): named nodes (hosts,
// switches, middlebox hosts, DPI service instances) connected by
// point-to-point duplex links that preserve ordering and can model
// queueing, latency and link rate. Frames are raw Ethernet byte slices;
// each link direction is a buffered queue drained by its own goroutine,
// so every node observes a FIFO stream per ingress port — the property
// the result-packet pairing of Section 4.2 relies on.
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Node is a network element attached to the fabric.
type Node interface {
	// Name returns the node's unique name within its network.
	Name() string
	// Attach gives the node the transmit side of the link connected to
	// one of its ports. Called once per port before any Recv.
	Attach(port int, tx *Port)
	// Recv handles one frame arriving on port. It is invoked from the
	// delivering link's goroutine; a node with multiple ports may see
	// concurrent calls and must synchronize internally. The frame is
	// owned by the callee.
	Recv(port int, frame []byte)
}

// PortMapper lets multi-port nodes (switches) choose their own port
// numbering: PortTo is consulted when a link to the named peer is
// attached. Nodes without it (hosts) attach everything at port 0.
type PortMapper interface {
	PortTo(peer string) int
}

// LinkOpts model link properties.
type LinkOpts struct {
	// Latency is added to every frame's delivery.
	Latency time.Duration
	// RateBps limits the link to the given bits per second; 0 means
	// unlimited.
	RateBps int64
	// Queue is the per-direction queue depth in frames; 0 selects a
	// default of 512. A full queue drops (tail-drop), as a real switch
	// egress queue would.
	Queue int
}

const defaultQueueDepth = 512

// Port is the transmit handle of one link direction.
type Port struct {
	ch     chan []byte
	drops  atomic.Uint64
	sent   atomic.Uint64
	closed atomic.Bool
}

// Send enqueues a frame for delivery; it reports false when the frame
// was dropped (full queue or stopped network). The caller must not
// reuse the slice afterwards.
func (p *Port) Send(frame []byte) bool {
	if p == nil || p.closed.Load() {
		return false
	}
	select {
	case p.ch <- frame:
		p.sent.Add(1)
		return true
	default:
		p.drops.Add(1)
		return false
	}
}

// Stats reports frames sent and dropped on this direction.
func (p *Port) Stats() (sent, drops uint64) { return p.sent.Load(), p.drops.Load() }

// The network lock is held while wiring nodes (Connect starts pump
// goroutines that touch host and switch queues), so it sits above the
// per-node locks in the hierarchy.
//
//dpi:lockorder(netsim.Network.mu < netsim.Host.mu)
//dpi:lockorder(netsim.Network.mu < openflow.Switch.mu)

// Network owns nodes and links.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]Node
	ports   []*Port
	done    chan struct{}
	wg      sync.WaitGroup
	stopped bool

	// chaos is the fault-injection layer (chaos.go); zero value = no
	// faults.
	chaos chaosState
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{nodes: make(map[string]Node), done: make(chan struct{})}
}

// Errors returned by topology construction.
var (
	ErrDuplicateNode = errors.New("netsim: duplicate node name")
	ErrUnknownNode   = errors.New("netsim: node not added to network")
	ErrStopped       = errors.New("netsim: network stopped")
)

// AddNode registers a node.
func (n *Network) AddNode(node Node) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[node.Name()]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateNode, node.Name())
	}
	n.nodes[node.Name()] = node
	return nil
}

// Connect creates a duplex link between a's aPort and b's bPort. Nodes
// implementing PortMapper decide their own port numbers; plain nodes
// (hosts) receive everything on port 0 and the given port arguments are
// used for the peer-facing numbering of PortMapper nodes only.
func (n *Network) Connect(a, b Node, opts LinkOpts) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.stopped {
		return ErrStopped
	}
	for _, node := range []Node{a, b} {
		if _, ok := n.nodes[node.Name()]; !ok {
			return fmt.Errorf("%w: %s", ErrUnknownNode, node.Name())
		}
	}
	n.startDirection(a, b, opts) // a -> b
	n.startDirection(b, a, opts) // b -> a
	return nil
}

// startDirection wires a queue from src toward dst and hands src the
// transmit handle. Caller holds n.mu.
func (n *Network) startDirection(src, dst Node, opts LinkOpts) {
	depth := opts.Queue
	if depth <= 0 {
		depth = defaultQueueDepth
	}
	p := &Port{ch: make(chan []byte, depth)}
	n.ports = append(n.ports, p)
	dstPort := portOf(dst, src.Name())
	srcName, dstName := src.Name(), dst.Name()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		// held is a frame the chaos layer transposed: it is delivered
		// right after the next frame on this direction.
		var held []byte
		hasHeld := false
		for {
			select {
			case frame := <-p.ch:
				if opts.Latency > 0 {
					time.Sleep(opts.Latency)
				}
				if opts.RateBps > 0 {
					time.Sleep(time.Duration(int64(len(frame)) * 8 * int64(time.Second) / opts.RateBps))
				}
				if n.chaosActive() {
					drop, dup, reorder, delay := n.chaosVerdict(srcName, dstName, len(frame))
					if drop {
						continue
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					if dup {
						// The callee owns its frame; the copy is made
						// before the original is handed over.
						dst.Recv(dstPort, append([]byte(nil), frame...))
					}
					if reorder && !hasHeld {
						held, hasHeld = frame, true
						continue
					}
				}
				dst.Recv(dstPort, frame)
				if hasHeld {
					dst.Recv(dstPort, held)
					held, hasHeld = nil, false
				}
			case <-n.done:
				return
			}
		}
	}()
	src.Attach(portOf(src, dst.Name()), p)
}

// portOf returns the port number node uses for its link to peer.
func portOf(node Node, peer string) int {
	if pm, ok := node.(PortMapper); ok {
		return pm.PortTo(peer)
	}
	return 0
}

// Stop shuts the fabric down: in-flight frames may be discarded, nodes
// simply stop receiving. Stop is idempotent.
func (n *Network) Stop() {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.stopped = true
	for _, p := range n.ports {
		p.closed.Store(true)
	}
	close(n.done)
	n.mu.Unlock()
	n.wg.Wait()
}

// Flush blocks until every link queue has been observed empty three
// times in a row — a practical quiescence barrier for tests and
// examples (the fabric has no global clock).
func (n *Network) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	idleStreak := 0
	for time.Now().Before(deadline) {
		n.mu.Lock()
		idle := true
		for _, p := range n.ports {
			if len(p.ch) > 0 {
				idle = false
				break
			}
		}
		n.mu.Unlock()
		if idle {
			idleStreak++
			if idleStreak >= 3 {
				return true
			}
		} else {
			idleStreak = 0
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
