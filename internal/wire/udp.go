package wire

import (
	"net"
	"net/netip"
)

// UDPTransport is the real-network Transport: one UDP socket, either
// bound (server; datagrams carry peer addresses) or connected (client;
// the zero Addr sends to the peer). On linux/amd64 and linux/arm64 the
// batch paths use sendmmsg/recvmmsg so one syscall moves a whole batch
// (batch_linux.go); elsewhere a portable loop provides the same
// interface one datagram at a time (batch_fallback.go).
type UDPTransport struct {
	conn      *net.UDPConn
	connected bool
	local     Addr
	// Socket buffer sizes the kernel granted; 0 where they cannot be
	// read back.
	rcvbuf, sndbuf int

	// batch is the platform batch-syscall state; nil when unavailable
	// (non-linux, or raw-conn setup failed).
	batch *batchIO
}

// socketBufferBytes is requested for both socket buffers: a burst of
// full batches must not be dropped by the kernel while the reader is
// scanning. One 256-frame window of MTU-sized packets is ~370 KiB, more
// than a stock kernel's 208 KiB clamp holds, so the grant is read back
// (SocketBuffers) and a short one is reported at start-up.
const socketBufferBytes = 4 << 20

// ListenUDP opens a bound (server) transport on addr, e.g.
// "127.0.0.1:9300" or ":9300".
func ListenUDP(addr string) (*UDPTransport, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, err
	}
	return newUDPTransport(conn, false), nil
}

// DialUDP opens a connected (client) transport toward addr.
func DialUDP(addr string) (*UDPTransport, error) {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		return nil, err
	}
	return newUDPTransport(conn, true), nil
}

func newUDPTransport(conn *net.UDPConn, connected bool) *UDPTransport {
	t := &UDPTransport{conn: conn, connected: connected}
	t.rcvbuf, t.sndbuf = tuneSocket(conn)
	if la, ok := conn.LocalAddr().(*net.UDPAddr); ok {
		t.local = Addr{AP: la.AddrPort()}
	}
	t.batch = newBatchIO(conn, connected)
	return t
}

// LocalAddr implements Transport.
func (t *UDPTransport) LocalAddr() Addr { return t.local }

// SocketBuffers returns the receive and send buffer sizes the kernel
// granted (as SO_RCVBUF/SO_SNDBUF report them); 0 where they cannot be
// read back.
func (t *UDPTransport) SocketBuffers() (rcvbuf, sndbuf int) { return t.rcvbuf, t.sndbuf }

// PathBudget implements Transport: the route's MTU less the IP and UDP
// headers, capped at MaxDatagram. A connected socket reads its own
// route; a bound one asks about peer's.
func (t *UDPTransport) PathBudget(peer Addr) (int, bool) {
	b := pathBudget(t.conn, t.connected, peer)
	if b <= 0 {
		return coalesceBudget, false
	}
	return min(b, MaxDatagram), true
}

// Batched reports whether the platform batch syscalls are in use.
func (t *UDPTransport) Batched() bool { return t.batch != nil }

// Close implements Transport.
func (t *UDPTransport) Close() error { return t.conn.Close() }

// WriteBatch implements Transport.
func (t *UDPTransport) WriteBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if t.batch != nil {
		return t.batch.writeBatch(dgs)
	}
	return t.writeLoop(dgs)
}

// writeLoop is the portable fallback: one sendto per datagram.
func (t *UDPTransport) writeLoop(dgs []Datagram) (int, error) {
	for i := range dgs {
		var err error
		if t.connected || !dgs[i].Addr.AP.IsValid() {
			_, err = t.conn.Write(dgs[i].Buf)
		} else {
			_, err = t.conn.WriteToUDPAddrPort(dgs[i].Buf, dgs[i].Addr.AP)
		}
		if err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// ReadBatch implements Transport.
func (t *UDPTransport) ReadBatch(dgs []Datagram) (int, error) {
	if len(dgs) == 0 {
		return 0, nil
	}
	if t.batch != nil {
		return t.batch.readBatch(dgs)
	}
	return t.readOne(dgs)
}

// readOne is the portable fallback: a single blocking recvfrom.
func (t *UDPTransport) readOne(dgs []Datagram) (int, error) {
	buf := dgs[0].Buf[:cap(dgs[0].Buf)]
	n, ap, err := t.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return 0, err
	}
	dgs[0].Buf = buf[:n]
	dgs[0].Addr = Addr{AP: canonicalAP(ap)}
	return 1, nil
}

// canonicalAP unmaps 4-in-6 addresses so one peer always hashes to one
// session key regardless of socket family.
func canonicalAP(ap netip.AddrPort) netip.AddrPort {
	if ap.Addr().Is4In6() {
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	return ap
}
