package wire

import "net/netip"

// Addr identifies a transport peer. Exactly one half is set: the UDP
// transport uses AP (allocation-free, comparable), the netsim
// transport the peer node name. The zero Addr is "unaddressed" —
// legal for connected transports that have a single fixed peer.
type Addr struct {
	AP   netip.AddrPort
	Name string
}

// IsZero reports whether a names no peer.
func (a Addr) IsZero() bool { return a.Name == "" && !a.AP.IsValid() }

// String renders the address for diagnostics (allocates; not for the
// hot path).
func (a Addr) String() string {
	if a.Name != "" {
		return a.Name
	}
	return a.AP.String()
}

// Datagram is one transport message: a byte buffer and its peer.
type Datagram struct {
	Addr Addr
	Buf  []byte
}

// Transport moves datagrams in batches — the sendmmsg/recvmmsg shape:
// one call covers many messages so the per-packet syscall cost is
// amortized, with implementations free to fall back to a portable
// one-at-a-time loop. Implementations: UDPTransport (real sockets,
// batch syscalls on linux), NetsimTransport (deterministic in-process
// fabric), and the test chaos proxy's inner sockets.
//
// A Transport is safe for one concurrent reader and one concurrent
// writer.
type Transport interface {
	// WriteBatch sends the given datagrams, returning how many were
	// handed to the network. Datagrams to the zero Addr go to the
	// connected peer (connected transports only). ErrMsgSize reports that
	// the path refused some for their size and the rest went out: the
	// caller shrinks its budget and lets retransmission re-send the
	// frames they carried.
	WriteBatch(dgs []Datagram) (int, error)
	// ReadBatch blocks until at least one datagram is available, fills
	// up to len(dgs) entries and returns the count. Each dgs[i].Buf
	// must be preallocated with at least MaxDatagram capacity; on
	// return it is resliced to the received length and dgs[i].Addr is
	// the sender.
	ReadBatch(dgs []Datagram) (int, error)
	// PathBudget reports the largest datagram the path toward peer (the
	// zero Addr: the connected peer) carries in one piece. With df set
	// that is the kernel's figure for a socket that refuses to fragment:
	// a longer datagram fails with ErrMsgSize and a frame that cannot fit
	// is refused at Send. Without it the transport cannot ask, budget is
	// coalesceBudget, and a longer frame still travels, alone in its
	// datagram.
	PathBudget(peer Addr) (budget int, df bool)
	// LocalAddr returns the transport's own address.
	LocalAddr() Addr
	// Close unblocks readers and releases the transport.
	Close() error
}

// coalesceBudget is the datagram budget of a path that cannot be asked
// for its own (netsim, platforms without the socket options, a server
// session before its peer has shown what the path carries): 1400 bytes
// fits every common MTU with room for tunnel headers. It is also what a
// session falls back to when its path turns out to eat the larger
// datagrams it was promised.
const coalesceBudget = 1400

// DefaultBatch is the batch size Conn and Server use for transport
// reads and writes.
const DefaultBatch = 32
