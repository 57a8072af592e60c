package wire

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// captureTransport is the write half of a Transport for hand-pumped
// tests: it keeps a copy of every datagram written and reports whatever
// path it is told to.
type captureTransport struct {
	out  [][]byte
	path int
	df   bool
}

func (c *captureTransport) WriteBatch(dgs []Datagram) (int, error) {
	for _, dg := range dgs {
		c.out = append(c.out, append([]byte(nil), dg.Buf...))
	}
	return len(dgs), nil
}

func (c *captureTransport) ReadBatch([]Datagram) (int, error) { return 0, ErrClosed }
func (c *captureTransport) LocalAddr() Addr                   { return Addr{Name: "capture"} }
func (c *captureTransport) Close() error                      { return nil }
func (c *captureTransport) PathBudget(Addr) (int, bool)       { return c.path, c.df }

// take returns and forgets what has been written.
func (c *captureTransport) take() [][]byte {
	out := c.out
	c.out = nil
	return out
}

// frameSeqs lists the seqs of the frames packed in dg.
func frameSeqs(t *testing.T, dg []byte) []uint32 {
	t.Helper()
	var seqs []uint32
	for len(dg) > 0 {
		h, _, rest, err := NextFrame(dg)
		if err != nil {
			t.Fatalf("staged datagram does not parse: %v", err)
		}
		seqs = append(seqs, h.Seq)
		dg = rest
	}
	return seqs
}

// TestStagerPacksToBudget is the stager's contract: frames pack up to
// the budget and no further, a frame above the budget rides alone (or,
// where the transport refuses to fragment, does not fit), and moving the
// budget between stage calls neither splits nor reorders frames.
func TestStagerPacksToBudget(t *testing.T) {
	type step struct {
		budget  int // set before staging; 0 keeps the current one
		payload int
	}
	for _, tc := range []struct {
		name  string
		steps []step
		want  [][]uint32 // seqs per datagram
	}{
		{"packs to the budget", []step{{1000, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}, {0, 76}},
			[][]uint32{{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {11}}},
		{"exact fit stays together", []step{{200, 76}, {0, 76}, {0, 76}}, [][]uint32{{1, 2}, {3}}},
		{"frame above the budget rides alone", []step{{400, 76}, {0, 1000}, {0, 76}, {0, 76}}, [][]uint32{{1}, {2}, {3, 4}}},
		{"budget raised mid-datagram", []step{{200, 76}, {0, 76}, {1000, 76}, {0, 76}}, [][]uint32{{1, 2, 3, 4}}},
		{"budget lowered mid-datagram", []step{{1000, 76}, {0, 76}, {0, 76}, {150, 76}, {0, 76}}, [][]uint32{{1, 2, 3}, {4}, {5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &captureTransport{path: MaxDatagram}
			st := newStager(tr, Addr{}, nil, func(dgs []Datagram) { tr.WriteBatch(dgs) })
			for i, s := range tc.steps {
				if s.budget > 0 {
					st.budget = s.budget
				}
				st.stage(Header{Type: TData, Seq: uint32(i + 1)}, make([]byte, s.payload))
			}
			st.flush()
			var got [][]uint32
			for _, dg := range tr.take() {
				got = append(got, frameSeqs(t, dg))
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("datagrams carry seqs %v, want %v", got, tc.want)
			}
		})
	}

	t.Run("does not fit under DF", func(t *testing.T) {
		st := newStager(&captureTransport{path: 1372, df: true}, Addr{}, nil, nil)
		if !st.fits(1372-HeaderLen) || st.fits(1372-HeaderLen+1) {
			t.Errorf("fits: a %d-byte path must take a %d-byte payload and nothing longer", 1372, 1372-HeaderLen)
		}
		if st.budget != 1372 {
			t.Errorf("budget %d on a 1372-byte path, want 1372: the default is a ceiling only when the path is larger", st.budget)
		}
		loose := newStager(&captureTransport{path: coalesceBudget}, Addr{}, nil, nil)
		if !loose.fits(MaxFramePayload) {
			t.Error("a transport that cannot be asked must still carry a full-size frame, alone")
		}
	})
}

// hand is one end of a session pumped by hand under a virtual clock: an
// endpoint and its stager over a captureTransport, wired the way Conn
// and Session wire them.
type hand struct {
	t      *testing.T
	ep     *Endpoint
	st     *stager
	tr     *captureTransport
	ackBuf []byte
	// onFrame sees every in-order delivery (the server end answers it).
	onFrame func(seq uint32, payload []byte)
	follow  bool // server end: the budget follows delivered datagram sizes
}

func newHand(t *testing.T, cfg Config, met *Metrics, path int, server bool) *hand {
	h := &hand{t: t, tr: &captureTransport{path: path, df: true}, ackBuf: make([]byte, SackBytes(256)), follow: server}
	h.ep = NewEndpoint(7, cfg, met)
	h.st = newStager(h.tr, Addr{}, met, func(dgs []Datagram) { h.tr.WriteBatch(dgs) })
	h.ep.OnRepeatLoss(h.st.fallBack)
	if !server {
		h.st.raise(h.st.path)
	}
	return h
}

// recv handles one arrived datagram the way the receive loops do.
func (h *hand) recv(dg []byte, now int64) {
	size := len(dg)
	for len(dg) > 0 {
		hd, payload, rest, err := NextFrame(dg)
		if err != nil {
			h.t.Fatalf("bad datagram: %v", err)
		}
		dg = rest
		if hd.Type == TAck {
			h.ep.HandleAck(hd.Ack, payload, now, h.st.stage)
			continue
		}
		h.ep.HandleFrame(hd, payload, now, func(_ Type, seq uint32, _ uint8, p []byte) {
			if h.onFrame != nil {
				h.onFrame(seq, p)
			}
		}, h.st.stage)
	}
	if h.follow {
		h.st.raise(size)
	}
}

// finish ends a receive batch or a tick: one ack if due, one flush.
func (h *hand) finish() {
	if h.ep.AckDue() {
		h.ep.BuildAck(h.ackBuf, h.st.stage)
	}
	h.st.flush()
}

// pump moves what src has written to dst through a path that silently
// eats datagrams longer than hole (0 = a clean path) and those the
// drop func picks, and returns the largest datagram that got through.
func pump(src, dst *hand, now int64, hole int, drop func(dg []byte) bool) (largest int) {
	for _, dg := range src.tr.take() {
		if hole > 0 && len(dg) > hole || drop != nil && drop(dg) {
			continue
		}
		largest = max(largest, len(dg))
		dst.recv(dg, now)
	}
	dst.finish()
	return largest
}

// blackHoleSession runs a client window of small frames against an
// answering server over a path with the given faults and returns the
// virtual time at which the last result arrived.
func blackHoleSession(t *testing.T, met *Metrics, hole int, drop func(dg []byte) bool) (cl, sv *hand, doneAt int64, largest int) {
	cfg := Config{JitterSeed: 7}
	cfg.defaults()
	cl = newHand(t, cfg, met, MaxDatagram, false)
	sv = newHand(t, cfg, met, MaxDatagram, true)
	const frames = 256
	var now int64
	results := 0
	cl.onFrame = func(uint32, []byte) { results++ }
	sv.onFrame = func(seq uint32, p []byte) {
		if _, err := sv.ep.Send(TResult, p[:8], now, sv.st.stage); err != nil {
			t.Fatalf("server send: %v", err)
		}
	}
	for i := 0; i < frames; i++ {
		if _, err := cl.ep.Send(TData, make([]byte, 100), now, cl.st.stage); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	cl.st.flush()
	tick := int64(cfg.RTOBase) / 4
	for ; results < frames; now += tick {
		if now > 100*int64(cfg.RTOBase) {
			t.Fatalf("only %d of %d results after 100 RTOs", results, frames)
		}
		if !cl.ep.Tick(now, cl.st.stage) || !sv.ep.Tick(now, sv.st.stage) {
			t.Fatal("session died")
		}
		cl.finish()
		sv.finish()
		// A few exchanges per tick: the path itself is fast.
		for i := 0; i < 4; i++ {
			largest = max(largest, pump(cl, sv, now, hole, drop), pump(sv, cl, now, hole, drop))
		}
	}
	return cl, sv, now, largest
}

// A path that silently eats every datagram above 1472 bytes — DF set,
// the ICMP filtered — costs a session a bounded number of timeouts and
// no frame: the first timeout retransmits under the same budget, the
// second falls back to the default, and from there on nothing is lost.
func TestBlackHoleFallsBackWithinFiveRTOs(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	fl := trace.NewFlight("test", 8192) // the window's retransmit events must not push the fallback out
	met.SetFlight(fl)
	cl, sv, doneAt, largest := blackHoleSession(t, met, 1472, nil)

	rto := int64(40 * time.Millisecond)
	t.Logf("window of 256 delivered through the hole after %.2f RTOs, %d retransmissions", float64(doneAt)/float64(rto), cl.ep.Stats().Retransmits)
	if doneAt > 5*rto {
		t.Errorf("window delivered after %.1f RTOs, want at most 5 (RTO + doubled RTO + jitter)", float64(doneAt)/float64(rto))
	}
	if cl.st.budget != coalesceBudget || !cl.st.fellBack {
		t.Errorf("client budget %d (fellBack=%v), want the default %d for the rest of the session", cl.st.budget, cl.st.fellBack, coalesceBudget)
	}
	if sv.st.budget > 1472 {
		t.Errorf("server budget %d: it follows what arrived, and nothing above 1472 did", sv.st.budget)
	}
	if largest > 1472 {
		t.Errorf("a %d-byte datagram crossed the hole", largest)
	}
	if n := reg.Counter("wire.budget_fallbacks").Value(); n != 1 {
		t.Errorf("wire.budget_fallbacks = %d, want 1", n)
	}
	var ev *trace.Event
	for _, e := range fl.Snapshot() {
		if e.Kind == trace.EvBudgetFallback {
			ev = &e
		}
	}
	if ev == nil || ev.A != MaxDatagram || ev.B != coalesceBudget {
		t.Errorf("flight event = %+v, want budget_fallback %d -> %d", ev, MaxDatagram, coalesceBudget)
	}

	// The rest of the session pays nothing: ten more windows, no
	// retransmission.
	before := cl.ep.Stats().Retransmits
	cl.st.raise(MaxDatagram) // a later large datagram must not lift a fallen-back budget
	now := doneAt
	for w := 0; w < 10; w++ {
		for i := 0; i < 256; i++ {
			if _, err := cl.ep.Send(TData, make([]byte, 100), now, cl.st.stage); err != nil {
				t.Fatalf("window %d send %d: %v", w, i, err)
			}
		}
		cl.st.flush()
		for i := 0; i < 4; i++ {
			pump(cl, sv, now, 1472, nil)
			pump(sv, cl, now, 1472, nil)
		}
		if cl.ep.InFlight() != 0 {
			t.Fatalf("window %d: %d frames unacked on a path that carries the default", w, cl.ep.InFlight())
		}
	}
	if after := cl.ep.Stats().Retransmits; after != before {
		t.Errorf("%d retransmissions after the fallback, want none", after-before)
	}
}

// One lost datagram on a healthy path is one timeout per frame it
// carried, retransmitted under the same budget and delivered: the
// session keeps its budget.
func TestSingleTimeoutKeepsBudget(t *testing.T) {
	reg := obs.NewRegistry()
	lost := 0
	cl, _, doneAt, _ := blackHoleSession(t, NewMetrics(reg), 0, func(dg []byte) bool {
		if lost == 0 && len(dg) > 8000 {
			lost = len(frameSeqs(t, dg))
			return true
		}
		return false
	})
	if lost == 0 {
		t.Fatal("no large datagram was sent")
	}
	if cl.st.budget != MaxDatagram || cl.st.fellBack {
		t.Errorf("budget %d (fellBack=%v) after one lost datagram, want %d kept", cl.st.budget, cl.st.fellBack, MaxDatagram)
	}
	if n := reg.Counter("wire.budget_fallbacks").Value(); n != 0 {
		t.Errorf("wire.budget_fallbacks = %d, want 0", n)
	}
	if got := cl.ep.Stats().Retransmits; got != uint64(lost) {
		t.Errorf("%d retransmissions for a datagram of %d frames", got, lost)
	}
	if rto := int64(40 * time.Millisecond); doneAt > 2*rto {
		t.Errorf("recovered after %.1f RTOs, want within 2", float64(doneAt)/float64(rto))
	}
}

// refusingTransport is a netsim transport that behaves like a DF socket
// on a path narrower than it first claims: datagrams above max are
// refused with ErrMsgSize, and only then does PathBudget report max.
type refusingTransport struct {
	*NetsimTransport
	max     int
	refused atomic.Bool
}

func (r *refusingTransport) PathBudget(Addr) (int, bool) {
	if r.refused.Load() {
		return r.max, true
	}
	return MaxDatagram, true
}

func (r *refusingTransport) WriteBatch(dgs []Datagram) (int, error) {
	sent := 0
	for i := range dgs {
		if len(dgs[i].Buf) > r.max {
			r.refused.Store(true)
			continue
		}
		if _, err := r.NetsimTransport.WriteBatch(dgs[i : i+1]); err != nil {
			return sent, err
		}
		sent++
	}
	if sent < len(dgs) {
		return sent, ErrMsgSize
	}
	return sent, nil
}

// EMSGSIZE — the kernel refusing a datagram the budget allowed — shrinks
// the budget to what the transport now reports, is counted, and loses
// nothing: the frames of the refused datagrams come back by
// retransmission, each delivered exactly once.
func TestMsgSizeShrinksBudgetLosesNothing(t *testing.T) {
	ct, st, nw := newNetsimLink(t)
	reg := obs.NewRegistry()
	tr := &refusingTransport{NetsimTransport: ct, max: 3000}

	var mu sync.Mutex
	seen := make(map[uint32]int)
	srv := NewServer(st, testKey, testCfg, nil)
	srv.OnData(func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
		mu.Lock()
		seen[seq]++
		mu.Unlock()
		if err := s.SendResult(seq, []byte(fmt.Sprintf("match:%d:%s", tag, payload))); err != nil {
			t.Errorf("SendResult: %v", err)
		}
	})
	srv.Start()
	sink := newResultSink()
	c := NewConn(tr, IssueToken(testKey, 1), "tg-1", testCfg, NewMetrics(reg))
	c.OnResult(sink.add)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		nw.Stop()
	})
	if got := c.Budget(); got != MaxDatagram {
		t.Fatalf("budget %d before any refusal, want %d", got, MaxDatagram)
	}
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runExchange(t, c, 600, sink, make(map[int]uint32))

	if got := c.Budget(); got != 3000 {
		t.Errorf("budget %d after the refusal, want the 3000 the transport now reports", got)
	}
	if n := reg.Counter("wire.emsgsize").Value(); n == 0 {
		t.Error("wire.emsgsize did not move")
	}
	if n := reg.Counter("wire.budget_fallbacks").Value(); n != 0 {
		t.Errorf("wire.budget_fallbacks = %d: the transport explained the refusal, no fallback is due", n)
	}
	mu.Lock()
	defer mu.Unlock()
	for seq, n := range seen {
		if n != 1 {
			t.Errorf("frame %d delivered %d times", seq, n)
		}
	}
	if len(seen) != 600 {
		t.Errorf("%d distinct frames delivered, want 600", len(seen))
	}
}

// A frame that cannot fit the path's datagram is refused at Send and
// counted, not handed to the kernel to fragment.
func TestOversizeFrameRefusedAtSend(t *testing.T) {
	ct, _, nw := newNetsimLink(t)
	t.Cleanup(nw.Stop)
	tr := &refusingTransport{NetsimTransport: ct, max: 1372}
	tr.refused.Store(true) // the path reports 1372 from the start
	reg := obs.NewRegistry()
	c := NewConn(tr, IssueToken(testKey, 1), "tg-1", testCfg, NewMetrics(reg))
	if got := c.Budget(); got != 1372 {
		t.Fatalf("budget %d on a 1372-byte path", got)
	}
	if _, err := c.SendData(1, testTuple, make([]byte, 1400)); err != ErrPayloadSplit {
		t.Errorf("SendData of a 1400-byte payload on a 1372-byte path = %v, want ErrPayloadSplit", err)
	}
	if n := reg.Counter("wire.oversize_frames").Value(); n != 1 {
		t.Errorf("wire.oversize_frames = %d, want 1", n)
	}
	if _, err := c.SendData(1, testTuple, make([]byte, 1372-HeaderLen-DataHdrLen)); err != nil {
		t.Errorf("a frame that exactly fills the path's datagram was refused: %v", err)
	}
}

// udpPair opens a server transport and a client transport dialed to it.
func udpPair(t *testing.T) (srv, cli *UDPTransport) {
	t.Helper()
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cli, err = DialUDP(srv.LocalAddr().AP.String())
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, cli
}

// A server session knows its path's size from the kernel but starts at
// the default and follows the largest datagram its peer has delivered:
// a datagram that arrived whole is what the path is known to carry.
func TestSessionBudgetFollowsPeer(t *testing.T) {
	st, ct := udpPair(t)
	if _, df := ct.PathBudget(Addr{}); !df {
		t.Skip("the path cannot be asked on this platform")
	}
	reg := obs.NewRegistry()
	srv := NewServer(st, testKey, Config{RTOBase: time.Second}, NewMetrics(reg))
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		ct.Close()
	})
	budget := func() (b int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, s := range srv.sessions {
			b = s.st.budget
		}
		return b
	}
	token := IssueToken(testKey, 1)
	send := func(dg []byte) {
		if _, err := ct.WriteBatch([]Datagram{{Buf: dg}}); err != nil {
			t.Fatal(err)
		}
	}
	send(AppendFrame(nil, Header{Type: THello, Token: token}, []byte("peer")))
	waitFor(t, 5*time.Second, "the session", func() bool { return srv.SessionCount() == 1 })
	if got := budget(); got != coalesceBudget {
		t.Fatalf("fresh session budget %d, want the default %d", got, coalesceBudget)
	}
	for _, size := range []int{5000, 3000, 9000} {
		dg := AppendFrame(nil, Header{Type: TData, Token: token, Seq: 1, Ack: 1}, make([]byte, size-HeaderLen))
		send(dg)
		want := max(5000, size)
		waitFor(t, 5*time.Second, fmt.Sprintf("budget %d", want), func() bool { return budget() == want })
	}
	// tickOnce publishes the smallest live budget.
	waitFor(t, 5*time.Second, "the gauge", func() bool { return reg.Gauge("wire.datagram_budget").Value() == 9000 })
	if in := reg.Counter("wire.datagrams_in").Value(); in != 4 {
		t.Errorf("wire.datagrams_in = %d, want 4", in)
	}
}

// A black hole between real sockets: the proxy eats every datagram above
// 1472 bytes in both directions and the session still delivers every
// result, at the price of one fallback.
func TestWireThroughBlackHoleProxy(t *testing.T) {
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, df := st.PathBudget(Addr{AP: st.LocalAddr().AP}); !df {
		st.Close()
		t.Skip("the path cannot be asked on this platform: budgets never leave the default")
	}
	srv := echoServer(t, st, nil)
	proxy, err := NewChaosProxy(st.LocalAddr().AP.String(), ChaosConfig{MaxSize: 1472})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := DialUDP(proxy.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sink := newResultSink()
	c := NewConn(ct, IssueToken(testKey, 5), "tg-hole", testCfg, NewMetrics(reg))
	c.OnResult(sink.add)
	t.Cleanup(func() {
		c.Close()
		proxy.Close()
		srv.Close()
	})
	if got := c.Budget(); got != MaxDatagram {
		t.Fatalf("loopback budget %d, want %d", got, MaxDatagram)
	}
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runExchange(t, c, 2000, sink, make(map[int]uint32))
	if got := c.Budget(); got != coalesceBudget {
		t.Errorf("budget %d after the black hole, want the default %d", got, coalesceBudget)
	}
	if n := reg.Counter("wire.budget_fallbacks").Value(); n != 1 {
		t.Errorf("wire.budget_fallbacks = %d, want 1", n)
	}
	if ps := proxy.Stats(); ps.Oversize == 0 {
		t.Errorf("the proxy ate nothing: %+v", ps)
	}
}
