//go:build linux && (amd64 || arm64)

package wire

import (
	"net"
	"net/netip"
	"syscall"
	"testing"
)

// sockoptInt reads one integer socket option off a UDP socket.
func sockoptInt(t *testing.T, conn *net.UDPConn, level, opt int) int {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var serr error
	if err := rc.Control(func(fd uintptr) { v, serr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatalf("getsockopt(%d, %d): %v", level, opt, serr)
	}
	return v
}

// Every UDP socket the package opens refuses to fragment: DF on the
// wire, EMSGSIZE instead of IP fragments.
func TestEverySocketSetsDF(t *testing.T) {
	st, ct := udpPair(t)
	defer st.Close()
	defer ct.Close()
	proxy, err := NewChaosProxy(st.LocalAddr().AP.String(), ChaosConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	for name, conn := range map[string]*net.UDPConn{
		"ListenUDP": st.conn, "DialUDP": ct.conn, "proxy client side": proxy.lc, "proxy server side": proxy.sc,
	} {
		if got := sockoptInt(t, conn, syscall.IPPROTO_IP, syscall.IP_MTU_DISCOVER); got != syscall.IP_PMTUDISC_DO {
			t.Errorf("%s: IP_MTU_DISCOVER = %d, want IP_PMTUDISC_DO (%d)", name, got, syscall.IP_PMTUDISC_DO)
		}
	}
	// A dual-stack listener carries both families.
	dual, err := ListenUDP(":0")
	if err != nil {
		t.Skipf("no dual-stack listener: %v", err)
	}
	defer dual.Close()
	if got := sockoptInt(t, dual.conn, syscall.IPPROTO_IP, syscall.IP_MTU_DISCOVER); got != syscall.IP_PMTUDISC_DO {
		t.Errorf("dual-stack listener: IP_MTU_DISCOVER = %d", got)
	}
	if dual.LocalAddr().AP.Addr().Is6() {
		if got := sockoptInt(t, dual.conn, syscall.IPPROTO_IPV6, syscall.IPV6_MTU_DISCOVER); got != syscall.IPV6_PMTUDISC_DO {
			t.Errorf("dual-stack listener: IPV6_MTU_DISCOVER = %d", got)
		}
	}
}

// The budget is the kernel's answer, not a guess: IP_MTU less the IP and
// UDP headers, capped at MaxDatagram — on loopback, where the MTU is
// 64 KiB, the cap — and a bound socket gets the same answer about a peer.
// The socket buffers are read back too.
func TestConnBudgetIsKernelPathMTU(t *testing.T) {
	st, ct := udpPair(t)
	defer st.Close()
	defer ct.Close()
	mtu := sockoptInt(t, ct.conn, syscall.IPPROTO_IP, syscall.IP_MTU)
	want := min(mtu-28, MaxDatagram)
	c := NewConn(ct, IssueToken(testKey, 1), "tg", testCfg, nil)
	if got := c.Budget(); got != want {
		t.Errorf("conn budget %d, want min(IP_MTU %d - 28, MaxDatagram %d) = %d", got, mtu, MaxDatagram, want)
	}
	if mtu >= 65535 && want != MaxDatagram {
		t.Errorf("loopback budget %d, want MaxDatagram", want)
	}
	if got, df := st.PathBudget(Addr{AP: ct.LocalAddr().AP}); got != want || !df {
		t.Errorf("bound socket's budget toward the client = %d (df=%v), want %d", got, df, want)
	}
	if got, df := st.PathBudget(Addr{}); got != coalesceBudget || df {
		t.Errorf("bound socket's budget toward nobody = %d (df=%v), want the default", got, df)
	}
	rcv, snd := ct.SocketBuffers()
	if rcv != sockoptInt(t, ct.conn, syscall.SOL_SOCKET, syscall.SO_RCVBUF) || snd != sockoptInt(t, ct.conn, syscall.SOL_SOCKET, syscall.SO_SNDBUF) {
		t.Errorf("SocketBuffers = %d/%d, the socket says otherwise", rcv, snd)
	}
	if rcv == 0 || snd == 0 {
		t.Errorf("SocketBuffers = %d/%d, want the grant read back", rcv, snd)
	}
}

// narrowInterface finds a non-loopback IPv4 interface whose MTU is
// below the loopback's and returns an address on its subnet that is not
// its own, so a socket connected there routes through it.
func narrowInterface(t *testing.T) (mtu int, neighbour netip.Addr) {
	t.Helper()
	ifs, err := net.Interfaces()
	if err != nil {
		t.Skipf("interfaces: %v", err)
	}
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagUp == 0 || ifc.Flags&net.FlagLoopback != 0 || ifc.MTU <= 28+HeaderLen || ifc.MTU-28 >= MaxDatagram {
			continue
		}
		addrs, _ := ifc.Addrs()
		for _, a := range addrs {
			pfx, err := netip.ParsePrefix(a.String())
			if err != nil || !pfx.Addr().Is4() || pfx.Bits() > 30 {
				continue
			}
			// A /30 or wider has two hosts: one of the first two is not us.
			n := pfx.Masked().Addr().Next()
			if n == pfx.Addr() {
				n = n.Next()
			}
			return ifc.MTU, n
		}
	}
	t.Skip("no non-loopback IPv4 interface with an MTU below MaxDatagram")
	return 0, netip.Addr{}
}

// On an interface with MTU m the budget is m - 28, and the kernel holds
// the socket to it: a longer datagram is refused with EMSGSIZE, which
// WriteBatch reports as ErrMsgSize after trying the rest of the batch.
// Only refused datagrams are written, so nothing leaves the host.
func TestBudgetOnNarrowInterface(t *testing.T) {
	mtu, neighbour := narrowInterface(t)
	tr, err := DialUDP(netip.AddrPortFrom(neighbour, 9).String())
	if err != nil {
		t.Skipf("dial %v: %v", neighbour, err)
	}
	defer tr.Close()
	budget, df := tr.PathBudget(Addr{})
	if budget != mtu-28 || !df {
		t.Fatalf("budget %d (df=%v) through an interface with MTU %d, want %d", budget, df, mtu, mtu-28)
	}
	big := make([]byte, budget+1)
	n, err := tr.WriteBatch([]Datagram{{Buf: big}, {Buf: big}})
	if n != 0 || err != ErrMsgSize {
		t.Errorf("WriteBatch of two %d-byte datagrams on a %d-byte path = %d, %v; want 0, ErrMsgSize", len(big), budget, n, err)
	}
	c := NewConn(tr, IssueToken(testKey, 1), "tg", testCfg, nil)
	if _, err := c.SendData(1, testTuple, make([]byte, budget)); err != ErrPayloadSplit {
		t.Errorf("SendData of a frame above the path's datagram = %v, want ErrPayloadSplit", err)
	}
}
