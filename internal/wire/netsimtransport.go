package wire

import (
	"sync"

	"dpiservice/internal/netsim"
)

// NetsimTransport adapts the in-process virtual network to the
// Transport interface: one netsim node whose links are "datagram"
// paths to its peers, addressed by node name. The wire protocol —
// sessions, retransmission, reordering — runs bit-for-bit identically
// over it, which is what makes the protocol testable under netsim's
// deterministic chaos faults (drop/dup/delay/reorder) without sockets.
// Netsim semantics are untouched: the adapter is a plain Node.
//
// Unlike the UDP transport the write path copies each datagram (netsim
// ports take ownership of their frames); this is the test fabric, not
// the performance path.
type NetsimTransport struct {
	name string

	mu    sync.Mutex
	ports map[string]*netsim.Port // peer name -> tx handle
	peers []string                // port index -> peer name
	idx   map[string]int          // peer name -> port index

	incoming chan Datagram
	done     chan struct{}
	closed   bool
}

// NewNetsimTransport creates a transport node named name. Add it to a
// netsim.Network and Connect it to its peers before traffic flows.
func NewNetsimTransport(name string) *NetsimTransport {
	return &NetsimTransport{
		name:     name,
		ports:    make(map[string]*netsim.Port),
		idx:      make(map[string]int),
		incoming: make(chan Datagram, 4096),
		done:     make(chan struct{}),
	}
}

// Name implements netsim.Node.
func (t *NetsimTransport) Name() string { return t.name }

// PortTo implements netsim.PortMapper: each peer gets its own port so
// Recv can attribute frames to senders.
func (t *NetsimTransport) PortTo(peer string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.idx[peer]; ok {
		return i
	}
	i := len(t.peers)
	t.peers = append(t.peers, peer)
	t.idx[peer] = i
	return i
}

// Attach implements netsim.Node.
func (t *NetsimTransport) Attach(port int, tx *netsim.Port) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if port >= 0 && port < len(t.peers) {
		t.ports[t.peers[port]] = tx
	}
}

// Recv implements netsim.Node: an arriving frame becomes one datagram.
// A full incoming queue drops, as a kernel socket buffer would.
func (t *NetsimTransport) Recv(port int, frame []byte) {
	t.mu.Lock()
	var peer string
	if port >= 0 && port < len(t.peers) {
		peer = t.peers[port]
	}
	t.mu.Unlock()
	select {
	case t.incoming <- Datagram{Addr: Addr{Name: peer}, Buf: frame}:
	default:
	}
}

// LocalAddr implements Transport.
func (t *NetsimTransport) LocalAddr() Addr { return Addr{Name: t.name} }

// PathBudget implements Transport: a netsim link has no MTU to ask for.
func (t *NetsimTransport) PathBudget(Addr) (int, bool) { return coalesceBudget, false }

// WriteBatch implements Transport. A datagram with the zero Addr goes
// to the single connected peer (errors if there are several).
func (t *NetsimTransport) WriteBatch(dgs []Datagram) (int, error) {
	for i := range dgs {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return i, ErrClosed
		}
		var tx *netsim.Port
		if dgs[i].Addr.IsZero() {
			if len(t.peers) != 1 {
				t.mu.Unlock()
				return i, ErrNoSession
			}
			tx = t.ports[t.peers[0]]
		} else {
			tx = t.ports[dgs[i].Addr.Name]
		}
		t.mu.Unlock()
		if tx == nil {
			return i, ErrNoSession
		}
		// The port owns its frame; the staging buffer is reused.
		tx.Send(append([]byte(nil), dgs[i].Buf...))
	}
	return len(dgs), nil
}

// ReadBatch implements Transport: blocks for the first datagram, then
// drains whatever else is queued, up to len(dgs).
func (t *NetsimTransport) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	var first Datagram
	select {
	case first = <-t.incoming:
	case <-t.done:
		return 0, ErrClosed
	}
	n := t.fill(&dgs[0], first)
	for n < len(dgs) {
		select {
		case dg := <-t.incoming:
			n += t.fill(&dgs[n], dg)
		default:
			return n, nil
		}
	}
	return n, nil
}

// fill copies one received frame into the caller's buffer, mirroring
// the UDP transport's semantics (caller owns its buffers; oversized
// frames are truncated away, i.e. dropped by the codec).
func (t *NetsimTransport) fill(dst *Datagram, src Datagram) int {
	buf := dst.Buf[:cap(dst.Buf)]
	if len(src.Buf) > len(buf) {
		return 0
	}
	dst.Buf = buf[:copy(buf, src.Buf)]
	dst.Addr = src.Addr
	return 1
}

// Close implements Transport.
func (t *NetsimTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.done)
	}
	return nil
}
