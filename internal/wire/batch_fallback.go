//go:build !linux || !(amd64 || arm64)

package wire

import "net"

// batchIO is unavailable on this platform: newBatchIO returns nil and
// UDPTransport falls back to the portable per-datagram loop. The
// methods exist only to satisfy references from udp.go.
type batchIO struct{}

func newBatchIO(conn *net.UDPConn, connected bool) *batchIO { return nil }

// tuneSocket asks for the socket buffers; the grant cannot be read back
// here (0 = unknown) and fragmentation stays at the system default.
func tuneSocket(conn *net.UDPConn) (rcvbuf, sndbuf int) {
	conn.SetReadBuffer(socketBufferBytes)
	conn.SetWriteBuffer(socketBufferBytes)
	return 0, 0
}

// pathBudget cannot ask the kernel here.
func pathBudget(conn *net.UDPConn, connected bool, peer Addr) int { return 0 }

func (b *batchIO) readBatch(dgs []Datagram) (int, error)  { panic("unreachable") }
func (b *batchIO) writeBatch(dgs []Datagram) (int, error) { panic("unreachable") }
