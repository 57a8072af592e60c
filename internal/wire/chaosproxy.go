package wire

import (
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
)

// ChaosConfig sets the fault probabilities (0..1) a ChaosProxy applies
// per datagram, independently per direction. Seed makes every run's
// fault schedule reproducible.
type ChaosConfig struct {
	Drop    float64 // datagram silently discarded
	Dup     float64 // datagram forwarded twice
	Reorder float64 // datagram held and swapped with its successor
	Seed    uint64
	// MaxSize, when positive, discards every datagram longer than this
	// many bytes and relays the rest: a path-MTU black hole. Like
	// netsim.Fault.MaxSize it draws nothing from the seeded schedule.
	MaxSize int
}

// ChaosStats counts what the proxy did, so tests can assert the faults
// actually fired.
type ChaosStats struct {
	Forwarded uint64
	Dropped   uint64
	Duped     uint64
	Reordered uint64
	Oversize  uint64 // discarded for exceeding MaxSize
}

// ChaosProxy is a loopback UDP man-in-the-middle for soak tests: it
// relays datagrams between one client and one server while injecting
// seeded, reproducible loss, duplication and reordering. The wire
// protocol must deliver every reliable frame through it regardless —
// that is the soak tier's assertion. The client dials the proxy's
// ClientAddr instead of the server; the proxy learns the client's
// address from its first datagram.
type ChaosProxy struct {
	cfg ChaosConfig

	lc *net.UDPConn // faces the client (bound)
	sc *net.UDPConn // faces the server (connected)

	clientMu sync.Mutex
	client   netip.AddrPort

	closed atomic.Bool
	wg     sync.WaitGroup

	forwarded atomic.Uint64
	dropped   atomic.Uint64
	duped     atomic.Uint64
	reordered atomic.Uint64
	oversize  atomic.Uint64
}

// NewChaosProxy starts a proxy on an ephemeral loopback port relaying
// to server.
func NewChaosProxy(server string, cfg ChaosConfig) (*ChaosProxy, error) {
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	saddr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		lc.Close()
		return nil, err
	}
	sc, err := net.DialUDP("udp", nil, saddr)
	if err != nil {
		lc.Close()
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Sockets like the transport's own: DF set, so the proxy relays what
	// it was sent or fails, and buffers that hold a window of full
	// datagrams, so the only loss is the loss it injects.
	tuneSocket(lc)
	tuneSocket(sc)
	p := &ChaosProxy{cfg: cfg, lc: lc, sc: sc}
	p.wg.Add(2)
	go p.clientToServer()
	go p.serverToClient()
	return p, nil
}

// ClientAddr is the address clients dial instead of the real server.
func (p *ChaosProxy) ClientAddr() string { return p.lc.LocalAddr().String() }

// Stats snapshots the fault counters.
func (p *ChaosProxy) Stats() ChaosStats {
	return ChaosStats{
		Forwarded: p.forwarded.Load(),
		Dropped:   p.dropped.Load(),
		Duped:     p.duped.Load(),
		Reordered: p.reordered.Load(),
		Oversize:  p.oversize.Load(),
	}
}

// Close stops both relay directions.
func (p *ChaosProxy) Close() error {
	p.closed.Store(true)
	p.lc.Close()
	p.sc.Close()
	p.wg.Wait()
	return nil
}

// chaosDir is one relay direction's fault state: its own RNG stream
// and its held-back datagram for reordering.
type chaosDir struct {
	p    *ChaosProxy
	rng  uint64
	held []byte
	has  bool
	send func(b []byte)
}

func (d *chaosDir) rand() uint64 {
	x := d.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	d.rng = x
	return x
}

func (d *chaosDir) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	return d.rand()%1000000 < uint64(p*1000000)
}

// relay applies the fault schedule to one datagram.
func (d *chaosDir) relay(b []byte) {
	if max := d.p.cfg.MaxSize; max > 0 && len(b) > max {
		d.p.oversize.Add(1)
		return
	}
	if d.hit(d.p.cfg.Drop) {
		d.p.dropped.Add(1)
		return
	}
	if d.has {
		// A datagram is held: this one jumps the queue (the reorder).
		d.send(b)
		d.send(d.held)
		d.p.forwarded.Add(2)
		d.has = false
		return
	}
	if d.hit(d.p.cfg.Reorder) {
		d.held = append(d.held[:0], b...)
		d.has = true
		d.p.reordered.Add(1)
		return
	}
	d.send(b)
	d.p.forwarded.Add(1)
	if d.hit(d.p.cfg.Dup) {
		d.send(b)
		d.p.duped.Add(1)
	}
}

// flush releases a held datagram (on shutdown, so nothing is lost that
// the schedule meant to deliver late).
func (d *chaosDir) flush() {
	if d.has {
		d.send(d.held)
		d.p.forwarded.Add(1)
		d.has = false
	}
}

func (p *ChaosProxy) clientToServer() {
	defer p.wg.Done()
	d := &chaosDir{p: p, rng: p.cfg.Seed, send: func(b []byte) { p.sc.Write(b) }}
	defer d.flush()
	buf := make([]byte, MaxDatagram)
	for {
		n, from, err := p.lc.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		p.clientMu.Lock()
		p.client = canonicalAP(from)
		p.clientMu.Unlock()
		d.relay(buf[:n])
	}
}

func (p *ChaosProxy) serverToClient() {
	defer p.wg.Done()
	d := &chaosDir{p: p, rng: p.cfg.Seed + 0x9e3779b97f4a7c15, send: func(b []byte) {
		p.clientMu.Lock()
		client := p.client
		p.clientMu.Unlock()
		if client.IsValid() {
			p.lc.WriteToUDPAddrPort(b, client)
		}
	}}
	defer d.flush()
	buf := make([]byte, MaxDatagram)
	for {
		n, err := p.sc.Read(buf)
		if err != nil {
			return
		}
		d.relay(buf[:n])
	}
}
