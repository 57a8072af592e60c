//go:build linux && (amd64 || arm64)

package wire

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// Real batch I/O: sendmmsg(2)/recvmmsg(2) move up to DefaultBatch
// datagrams per syscall, so the transport's per-packet syscall cost is
// ~1/batch of the portable loop's — without this, kernel crossings
// would erase the per-packet wins of the batched scan path (PR 6).
// Restricted to linux on little-endian 64-bit, where the
// syscall.Msghdr layout below and the raw sockaddr byte order are
// known; every other platform uses the portable loop in udp.go.
//
// The structures are prepared once and reused: the only per-call work
// is pointer/length fixup, the syscall itself, and sockaddr decoding.

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// transferred-byte count.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

const (
	sizeofSockaddrInet4 = 16
	sizeofSockaddrInet6 = 28
	sockaddrBufLen      = 128 // sockaddr_storage

	afInet  = 2
	afInet6 = 10
)

// batchIO owns the reusable mmsg scratch for one socket. Read and
// write sides are independent, matching Transport's one-reader +
// one-writer contract.
type batchIO struct {
	rc        syscall.RawConn
	connected bool

	rhs    []mmsghdr
	riov   []syscall.Iovec
	rnames [][sockaddrBufLen]byte

	whs    []mmsghdr
	wiov   []syscall.Iovec
	wnames [][sockaddrBufLen]byte

	// The RawConn callbacks are bound once (recv, send) and pass their
	// arguments and results through these fields: a closure built per
	// call would capture its locals and cost a heap allocation per
	// syscall. One reader and one writer, so one set each.
	recv, send func(fd uintptr) bool
	rn, wn     int // headers offered to the syscall
	rgot, wgot int // messages it moved
	rerr, werr syscall.Errno
}

// Header bytes a UDP datagram spends out of the path MTU.
const (
	udp4Overhead = 20 + 8
	udp6Overhead = 40 + 8
)

// tuneSocket sizes conn's buffers and forbids fragmentation, and returns
// the buffer sizes the kernel granted (as SO_RCVBUF/SO_SNDBUF report
// them, bookkeeping overhead included). A plain SO_RCVBUF request is
// silently clamped to net.core.rmem_max, so the privileged FORCE variant
// is tried first; EPERM just means the clamp applies. With
// IP_PMTUDISC_DO every datagram carries DF and one longer than the path
// MTU fails with EMSGSIZE instead of being fragmented; both levels are
// set because a dual-stack socket carries both families.
func tuneSocket(conn *net.UDPConn) (rcvbuf, sndbuf int) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return 0, 0
	}
	rc.Control(func(p uintptr) {
		fd := int(p)
		if syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUFFORCE, socketBufferBytes) != nil {
			syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, socketBufferBytes)
		}
		if syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUFFORCE, socketBufferBytes) != nil {
			syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF, socketBufferBytes)
		}
		rcvbuf, _ = syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		sndbuf, _ = syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_SNDBUF)
		// One of the two fails on a single-family socket.
		syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_MTU_DISCOVER, syscall.IP_PMTUDISC_DO)
		syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_MTU_DISCOVER, syscall.IPV6_PMTUDISC_DO)
	})
	return rcvbuf, sndbuf
}

// connectedBudget reads the path MTU the kernel holds for a connected
// socket's route and returns it less the headers; 0 when it cannot say.
func connectedBudget(conn *net.UDPConn) int {
	ra, ok := conn.RemoteAddr().(*net.UDPAddr)
	//dpi:coldalloc(session setup and the EMSGSIZE path: one getsockopt per peer)
	rc, err := conn.SyscallConn()
	if !ok || err != nil {
		return 0
	}
	level, opt, overhead := syscall.IPPROTO_IP, syscall.IP_MTU, udp4Overhead
	if ra.IP.To4() == nil {
		level, opt, overhead = syscall.IPPROTO_IPV6, syscall.IPV6_MTU, udp6Overhead
	}
	//dpi:coldalloc(session setup and the EMSGSIZE path: one getsockopt per peer)
	budget := 0
	//dpi:coldalloc(session setup and the EMSGSIZE path: one getsockopt per peer)
	rc.Control(func(fd uintptr) {
		if mtu, err := syscall.GetsockoptInt(int(fd), level, opt); err == nil {
			budget = mtu - overhead
		}
	})
	return budget
}

// pathBudget is the kernel's datagram size for the path toward peer; 0
// when it cannot say. IP_MTU answers only on a connected socket, so a
// bound one asks through a throwaway socket connected to the peer: the
// route, and any path MTU the kernel has learned for it, is shared.
// Setup and the EMSGSIZE path only.
func pathBudget(conn *net.UDPConn, connected bool, peer Addr) int {
	if connected {
		return connectedBudget(conn)
	}
	if !peer.AP.IsValid() {
		return 0
	}
	probe, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(peer.AP))
	if err != nil {
		return 0
	}
	budget := connectedBudget(probe)
	probe.Close()
	return budget
}

// newBatchIO prepares batch state for conn; nil when the raw conn is
// unavailable.
func newBatchIO(conn *net.UDPConn, connected bool) *batchIO {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	b := &batchIO{rc: rc, connected: connected}
	b.rhs = make([]mmsghdr, DefaultBatch)
	b.riov = make([]syscall.Iovec, DefaultBatch)
	b.rnames = make([][sockaddrBufLen]byte, DefaultBatch)
	b.whs = make([]mmsghdr, DefaultBatch)
	b.wiov = make([]syscall.Iovec, DefaultBatch)
	b.wnames = make([][sockaddrBufLen]byte, DefaultBatch)
	b.recv = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&b.rhs[0])), uintptr(b.rn),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false // park until readable, then retry
		}
		b.rgot, b.rerr = int(r1), e
		return true
	}
	b.send = func(fd uintptr) bool {
		r1, _, e := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&b.whs[0])), uintptr(b.wn),
			syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		b.wgot, b.werr = int(r1), e
		return true
	}
	return b
}

// readBatch fills dgs via one (or, under contention, a few) recvmmsg
// calls: it blocks via the runtime poller until at least one datagram
// is ready, then drains up to len(dgs) in the single syscall.
func (b *batchIO) readBatch(dgs []Datagram) (int, error) {
	n := len(dgs)
	if n > len(b.rhs) {
		n = len(b.rhs)
	}
	for i := 0; i < n; i++ {
		buf := dgs[i].Buf[:cap(dgs[i].Buf)]
		b.riov[i].Base = &buf[0]
		b.riov[i].Len = uint64(len(buf))
		h := &b.rhs[i].hdr
		h.Name = &b.rnames[i][0]
		h.Namelen = sockaddrBufLen
		h.Iov = &b.riov[i]
		h.Iovlen = 1
		h.Control = nil
		h.Controllen = 0
		h.Flags = 0
		b.rhs[i].n = 0
	}
	b.rn = n
	if err := b.rc.Read(b.recv); err != nil {
		return 0, err
	}
	if b.rerr != 0 {
		return 0, b.rerr
	}
	got := b.rgot
	for i := 0; i < got; i++ {
		dgs[i].Buf = dgs[i].Buf[:cap(dgs[i].Buf)][:b.rhs[i].n]
		dgs[i].Addr = Addr{AP: decodeSockaddr(&b.rnames[i], b.rhs[i].hdr.Namelen)}
	}
	return got, nil
}

// writeBatch sends all of dgs, looping sendmmsg over partial sends. A
// datagram the kernel refuses for its size (EMSGSIZE: DF is set and the
// path MTU is smaller) is skipped and the rest still go out; the call
// then reports ErrMsgSize next to the count that left.
func (b *batchIO) writeBatch(dgs []Datagram) (int, error) {
	sent, refused := 0, 0
	for sent < len(dgs) {
		n := len(dgs) - sent
		if n > len(b.whs) {
			n = len(b.whs)
		}
		for i := 0; i < n; i++ {
			dg := &dgs[sent+i]
			b.wiov[i].Base = &dg.Buf[0]
			b.wiov[i].Len = uint64(len(dg.Buf))
			h := &b.whs[i].hdr
			h.Iov = &b.wiov[i]
			h.Iovlen = 1
			h.Control = nil
			h.Controllen = 0
			h.Flags = 0
			if b.connected || !dg.Addr.AP.IsValid() {
				h.Name = nil
				h.Namelen = 0
			} else {
				h.Name = &b.wnames[i][0]
				h.Namelen = encodeSockaddr(&b.wnames[i], dg.Addr.AP)
			}
			b.whs[i].n = 0
		}
		b.wn = n
		if err := b.rc.Write(b.send); err != nil {
			return sent, err
		}
		if b.werr == syscall.EMSGSIZE {
			// sendmmsg fails only on its first message: the ones before
			// the refused datagram were counted by the previous call.
			sent++
			refused++
			continue
		}
		if b.werr != 0 {
			return sent - refused, b.werr
		}
		wrote := b.wgot
		if wrote <= 0 {
			return sent - refused, syscall.EIO
		}
		sent += wrote
	}
	if refused > 0 {
		return sent - refused, ErrMsgSize
	}
	return sent, nil
}

// decodeSockaddr converts a raw kernel sockaddr to netip. The host is
// little-endian (build tag), sin_port network order.
func decodeSockaddr(raw *[sockaddrBufLen]byte, namelen uint32) netip.AddrPort {
	if namelen < 4 {
		return netip.AddrPort{}
	}
	family := uint16(raw[0]) | uint16(raw[1])<<8
	port := uint16(raw[2])<<8 | uint16(raw[3])
	switch family {
	case afInet:
		if namelen < sizeofSockaddrInet4 {
			return netip.AddrPort{}
		}
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte(raw[4:8])), port)
	case afInet6:
		if namelen < sizeofSockaddrInet6 {
			return netip.AddrPort{}
		}
		a := netip.AddrFrom16([16]byte(raw[8:24]))
		if a.Is4In6() {
			a = a.Unmap()
		}
		return netip.AddrPortFrom(a, port)
	}
	return netip.AddrPort{}
}

// encodeSockaddr writes ap as a raw sockaddr and returns its length.
func encodeSockaddr(raw *[sockaddrBufLen]byte, ap netip.AddrPort) uint32 {
	port := ap.Port()
	if ap.Addr().Is4() || ap.Addr().Is4In6() {
		a4 := ap.Addr().Unmap().As4()
		raw[0] = afInet
		raw[1] = 0
		raw[2] = byte(port >> 8)
		raw[3] = byte(port)
		copy(raw[4:8], a4[:])
		for i := 8; i < sizeofSockaddrInet4; i++ {
			raw[i] = 0
		}
		return sizeofSockaddrInet4
	}
	a16 := ap.Addr().As16()
	raw[0] = afInet6
	raw[1] = 0
	raw[2] = byte(port >> 8)
	raw[3] = byte(port)
	for i := 4; i < 8; i++ {
		raw[i] = 0 // flowinfo
	}
	copy(raw[8:24], a16[:])
	for i := 24; i < sizeofSockaddrInet6; i++ {
		raw[i] = 0 // scope id
	}
	return sizeofSockaddrInet6
}
