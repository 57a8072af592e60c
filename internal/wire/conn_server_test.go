package wire

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpiservice/internal/netsim"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
)

// testKey is the fixed cluster key of the in-process tests.
const testKey = uint64(0xfeedfacecafebeef)

// testCfg shrinks timers so loss recovery happens in test time.
var testCfg = Config{RTOBase: 10 * time.Millisecond, RTOMax: 100 * time.Millisecond, JitterSeed: 7}

var testTuple = packet.FiveTuple{
	Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{198, 51, 100, 7},
	SrcPort: 40000, DstPort: 80, Protocol: 6,
}

// resultSink collects results concurrently with the receive loop.
type resultSink struct {
	mu      sync.Mutex
	results map[uint32]string
}

func newResultSink() *resultSink { return &resultSink{results: make(map[uint32]string)} }

func (r *resultSink) add(seq uint32, report []byte) {
	r.mu.Lock()
	r.results[seq] = string(report)
	r.mu.Unlock()
}

func (r *resultSink) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

func (r *resultSink) get(seq uint32) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.results[seq]
	return s, ok
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// echoServer answers every TData with a TResult echoing the payload
// uppercased-by-position (cheap but position-sensitive, so corruption
// or mispairing shows).
func echoServer(t *testing.T, tr Transport, met *Metrics) *Server {
	t.Helper()
	srv := NewServer(tr, testKey, testCfg, met)
	srv.OnData(func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
		if tuple != testTuple {
			t.Errorf("tuple = %+v", tuple)
		}
		report := []byte(fmt.Sprintf("match:%d:%s", tag, payload))
		if err := s.SendResult(seq, report); err != nil {
			t.Errorf("SendResult: %v", err)
		}
	})
	srv.Start()
	return srv
}

// runExchange pushes n packets through the client and asserts every
// one's result arrives and pairs correctly.
func runExchange(t *testing.T, c *Conn, n int, sink *resultSink, seqs map[int]uint32) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := c.SendData(3, testTuple, []byte(fmt.Sprintf("pkt-%05d", i)))
		if err != nil {
			t.Fatalf("SendData %d: %v", i, err)
		}
		seqs[i] = seq
	}
	c.Flush()
	if err := c.WaitIdle(20 * time.Second); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	waitFor(t, 20*time.Second, "all results", func() bool { return sink.len() >= n })
	for i := 0; i < n; i++ {
		got, ok := sink.get(seqs[i])
		want := fmt.Sprintf("match:3:pkt-%05d", i)
		if !ok || got != want {
			t.Fatalf("result %d = %q (ok=%v), want %q", i, got, ok, want)
		}
	}
}

// newNetsimLink joins a client and a server transport over a clean
// netsim link.
func newNetsimLink(t *testing.T) (ct, st *NetsimTransport, nw *netsim.Network) {
	t.Helper()
	nw = netsim.NewNetwork()
	ct, st = NewNetsimTransport("client"), NewNetsimTransport("server")
	for _, n := range []*NetsimTransport{ct, st} {
		if err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Connect(ct, st, netsim.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	return ct, st, nw
}

func newNetsimPair(t *testing.T, met *Metrics) (*Conn, *Server, *resultSink, *netsim.Network) {
	t.Helper()
	ct, st, nw := newNetsimLink(t)
	srv := echoServer(t, st, met)
	sink := newResultSink()
	c := NewConn(ct, IssueToken(testKey, 1), "tg-1", testCfg, met)
	c.OnResult(sink.add)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		nw.Stop()
	})
	return c, srv, sink, nw
}

func TestWireOverNetsim(t *testing.T) {
	c, srv, sink, _ := newNetsimPair(t, nil)
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	waitFor(t, 5*time.Second, "server session", func() bool { return srv.SessionCount() == 1 })
	runExchange(t, c, 200, sink, make(map[int]uint32))
	if st := c.Stats(); st.Delivered == 0 || st.Sent != 200 {
		t.Fatalf("client stats = %+v", st)
	}
}

func TestWireOverNetsimChaos(t *testing.T) {
	reg := obs.NewRegistry()
	c, _, sink, nw := newNetsimPair(t, NewMetrics(reg))
	nw.SetChaosSeed(1234)
	fault := netsim.Fault{DropProb: 0.05, DupProb: 0.05, ReorderProb: 0.1}
	nw.SetLinkFault("client", "server", fault)
	nw.SetLinkFault("server", "client", fault)
	if err := c.Start(10 * time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	runExchange(t, c, 300, sink, make(map[int]uint32))
	cs := nw.ChaosStats()
	if cs.Dropped == 0 || cs.Reordered == 0 {
		t.Fatalf("chaos never fired: %+v", cs)
	}
	// A drop on either direction costs its sender a retransmission. The
	// server writes once per batch, so few datagrams flow and all of a
	// run's drops can fall on one side: count both.
	if n := reg.Counter("wire.retransmits").Value(); n == 0 {
		t.Fatalf("no retransmits on either side despite %d drops: client %+v", cs.Dropped, c.Stats())
	}
}

func TestWireOverUDP(t *testing.T) {
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := echoServer(t, st, nil)
	ct, err := DialUDP(st.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	sink := newResultSink()
	c := NewConn(ct, IssueToken(testKey, 2), "tg-udp", testCfg, nil)
	c.OnResult(sink.add)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	runExchange(t, c, 500, sink, make(map[int]uint32))
}

func TestWireVerdictPath(t *testing.T) {
	// The instance→middlebox direction: a client forwards verdicts, the
	// server (mboxd) consumes them.
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type verdict struct {
		tag    uint16
		tuple  packet.FiveTuple
		report string
	}
	var mu sync.Mutex
	var got []verdict
	srv := NewServer(st, testKey, testCfg, nil)
	srv.OnVerdict(func(s *Session, tag uint16, tuple packet.FiveTuple, report []byte) {
		mu.Lock()
		got = append(got, verdict{tag, tuple, string(report)})
		mu.Unlock()
	})
	srv.Start()

	ct, err := DialUDP(st.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(ct, IssueToken(testKey, 9), "inst-1", testCfg, nil)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := c.SendVerdict(uint16(i), testTuple, []byte(fmt.Sprintf("rule-%d", i))); err != nil {
			t.Fatalf("SendVerdict %d: %v", i, err)
		}
	}
	c.Flush()
	if err := c.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "verdicts", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 50
	})
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v.tag != uint16(i) || v.tuple != testTuple || v.report != fmt.Sprintf("rule-%d", i) {
			t.Fatalf("verdict %d = %+v", i, v)
		}
	}
}

func TestWireBadTokenRejected(t *testing.T) {
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, testKey, testCfg, nil)
	srv.Start()
	ct, err := DialUDP(st.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	// Token minted under the wrong key: hello must never complete.
	c := NewConn(ct, IssueToken(testKey^1, 1), "intruder", testCfg, nil)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	if err := c.Start(300 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("Start with forged token = %v, want ErrTimeout", err)
	}
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("server accepted %d forged sessions", n)
	}
}

func TestWireSessionRestartReplaces(t *testing.T) {
	// A client restarting on the same source address with a fresh token
	// must take the session over (the SIGKILL-and-restart case), not be
	// mistaken for the old peer.
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := echoServer(t, st, nil)
	t.Cleanup(func() { srv.Close() })
	ra, err := net.ResolveUDPAddr("udp", st.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}

	conn1, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}, ra)
	if err != nil {
		t.Fatal(err)
	}
	clientPort := conn1.LocalAddr().(*net.UDPAddr).Port
	sink1 := newResultSink()
	c1 := NewConn(newUDPTransport(conn1, true), IssueToken(testKey, 11), "tg-a", testCfg, nil)
	c1.OnResult(sink1.add)
	if err := c1.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	runExchange(t, c1, 10, sink1, make(map[int]uint32))
	c1.Close() // releases the port

	conn2, err := net.DialUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: clientPort}, ra)
	if err != nil {
		t.Fatal(err)
	}
	sink2 := newResultSink()
	c2 := NewConn(newUDPTransport(conn2, true), IssueToken(testKey, 12), "tg-a-reborn", testCfg, nil)
	c2.OnResult(sink2.add)
	t.Cleanup(func() { c2.Close() })
	if err := c2.Start(5 * time.Second); err != nil {
		t.Fatalf("restarted client handshake: %v", err)
	}
	runExchange(t, c2, 10, sink2, make(map[int]uint32))
	if n := srv.SessionCount(); n != 1 {
		t.Fatalf("sessions = %d, want 1 (takeover, not a duplicate)", n)
	}
}

// The server loop is batch-scoped: a handler replying inline to every
// frame of one ReadBatch costs the session one TAck and one WriteBatch,
// and the OnBatchEnd hook runs once, after the batch's last frame and
// before anything is flushed.
func TestServerAcksAndFlushesOncePerBatch(t *testing.T) {
	ct, st, nw := newNetsimLink(t)

	// Queue a hello and 40 data frames, four datagrams, before the server
	// starts: NetsimTransport.ReadBatch drains its queue, so they arrive
	// as one batch.
	const frames = 40
	token := IssueToken(testKey, 1)
	dgs := [][]byte{AppendFrame(nil, Header{Type: THello, Token: token}, []byte("peer"))}
	for seq := uint32(1); seq <= frames; seq++ {
		if seq%10 == 1 {
			dgs = append(dgs, nil)
		}
		last := &dgs[len(dgs)-1]
		*last = AppendFrame(*last, Header{Type: TData, Token: token, Seq: seq, Ack: 1},
			AppendData(nil, 3, testTuple, []byte(fmt.Sprintf("pkt-%02d", seq))))
	}
	for _, dg := range dgs {
		st.Recv(st.PortTo("client"), dg)
	}

	// The peer never acks; a long timeout keeps retransmissions of the
	// results out of the write count.
	reg := obs.NewRegistry()
	srv := NewServer(st, testKey, Config{RTOBase: time.Second}, NewMetrics(reg))
	var handled, atHook []int // receive goroutine only; read after the replies arrive
	srv.OnData(func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
		handled = append(handled, int(seq))
		if err := s.SendResult(seq, payload); err != nil {
			t.Errorf("SendResult: %v", err)
		}
	})
	srv.OnBatchEnd(func() { atHook = append(atHook, len(handled)) })
	srv.Start()
	t.Cleanup(func() {
		srv.Close()
		nw.Stop()
	})

	// Everything the batch produced comes back in one write: the hello
	// ack, 40 results and the TAck.
	in := make([]Datagram, DefaultBatch)
	for i := range in {
		in[i].Buf = make([]byte, 0, MaxDatagram)
	}
	results, acks := 0, 0
	for results < frames || acks == 0 { // the TAck is staged last
		n, err := ct.ReadBatch(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, dg := range in[:n] {
			for buf := dg.Buf; len(buf) > 0; {
				h, _, rest, err := NextFrame(buf)
				if err != nil {
					t.Fatal(err)
				}
				switch h.Type {
				case TResult:
					results++
				case TAck:
					acks++
					if h.Ack != frames+1 {
						t.Errorf("TAck acks up to %d, want %d", h.Ack, frames+1)
					}
				}
				buf = rest
			}
		}
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	// Every reply is in, so at most the last write is still to be counted.
	waitFor(t, 5*time.Second, "the write to be counted", func() bool { return count("wire.batches_out") > 0 })
	if in, ack, out := count("wire.batches_in"), count("wire.acks_sent"), count("wire.batches_out"); in != 1 || ack != 1 || out != 1 {
		t.Errorf("%d frames: %d ReadBatch, %d TAck, %d WriteBatch; want 1, 1, 1", frames+1, in, ack, out)
	}
	if acks != 1 {
		t.Errorf("peer saw %d TAck frames, want 1", acks)
	}
	if len(atHook) != 1 || atHook[0] != frames {
		t.Errorf("OnBatchEnd ran after %v handled frames, want once after %d", atHook, frames)
	}
}

// TestConnFlushesBeforeWindowWait pins the sender side of window
// backpressure: a Conn whose window fills with small frames pushes its
// partly filled stager out before it sleeps. The tick that would
// otherwise flush it is set seconds away, so without the flush every
// window of sends costs a tick.
func TestConnFlushesBeforeWindowWait(t *testing.T) {
	ct, st, nw := newNetsimLink(t)
	srv := echoServer(t, st, nil)
	slow := Config{RTOBase: 8 * time.Second, JitterSeed: 7} // tick every 2 s, no retransmit in test time
	c := NewConn(ct, IssueToken(testKey, 1), "tg-1", slow, nil)
	results := make(chan struct{})
	const sends = 4 * 256 // four default windows
	got := 0
	c.OnResult(func(uint32, []byte) {
		if got++; got == sends {
			close(results)
		}
	})
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		nw.Stop()
	})
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	payload := make([]byte, 64)
	for i := 0; i < sends; i++ {
		if _, err := c.SendData(3, testTuple, payload); err != nil {
			t.Fatalf("SendData %d: %v", i, err)
		}
	}
	c.Flush()
	select {
	case <-results:
	case <-time.After(20 * time.Second):
		t.Fatal("results never arrived")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("%d sends through a full window took %v: the sender waited for its 2 s tick", sends, d)
	}
}

// TestUDPBatchIOAllocFree checks the mmsg paths build nothing per call:
// the RawConn callbacks are bound once per socket.
func TestUDPBatchIOAllocFree(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !srv.Batched() {
		t.Skip("no batch syscalls on this platform")
	}
	cli, err := DialUDP(srv.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 4
	out, in := make([]Datagram, n), make([]Datagram, DefaultBatch)
	for i := range out {
		out[i].Buf = []byte("sixteen byte dgm")
	}
	for i := range in {
		in[i].Buf = make([]byte, 0, MaxDatagram)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := cli.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < n; {
			k, err := srv.ReadBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			got += k
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteBatch + ReadBatch allocated %v allocs, want 0", allocs)
	}
}

// countingTransport counts a transport's WriteBatch calls.
type countingTransport struct {
	Transport
	writes atomic.Int64
}

func (c *countingTransport) WriteBatch(dgs []Datagram) (int, error) {
	c.writes.Add(1)
	return c.Transport.WriteBatch(dgs)
}

// TestPushWaitsForTheAckInFlight: Push writes at once on an idle conn;
// with a frame in flight it leaves the staged ones for the ack, whose
// arrival sends them — a round trip later, not at the tick.
func TestPushWaitsForTheAckInFlight(t *testing.T) {
	nw := netsim.NewNetwork()
	ct, st := NewNetsimTransport("client"), NewNetsimTransport("server")
	for _, n := range []*NetsimTransport{ct, st} {
		if err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	const oneWay = 100 * time.Millisecond
	if err := nw.Connect(ct, st, netsim.LinkOpts{Latency: oneWay}); err != nil {
		t.Fatal(err)
	}
	arrived := make(chan time.Time, 2)
	srv := NewServer(st, testKey, testCfg, nil)
	srv.OnVerdict(func(*Session, uint16, packet.FiveTuple, []byte) { arrived <- time.Now() })
	srv.Start()
	cnt := &countingTransport{Transport: ct}
	slow := Config{RTOBase: 20 * time.Second, JitterSeed: 7} // tick every 5 s
	c := NewConn(cnt, IssueToken(testKey, 1), "dpi-1", slow, nil)
	t.Cleanup(func() {
		c.Close()
		srv.Close()
		nw.Stop()
	})
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	before := cnt.writes.Load()
	if err := c.SendVerdict(1, testTuple, []byte("first")); err != nil {
		t.Fatal(err)
	}
	c.Push()
	if got := cnt.writes.Load() - before; got != 1 {
		t.Fatalf("idle conn: Push made %d writes, want 1", got)
	}
	if err := c.SendVerdict(1, testTuple, []byte("second")); err != nil {
		t.Fatal(err)
	}
	c.Push()
	if got := cnt.writes.Load() - before; got != 1 {
		t.Fatalf("first verdict in flight: Push made %d more writes, want none", got-1)
	}
	for i := 0; i < 2; i++ {
		select {
		case at := <-arrived:
			// The second leaves with the first one's ack: one round trip
			// after the first, which itself takes one way.
			if d := at.Sub(start); d > 3*oneWay+time.Second {
				t.Fatalf("verdict %d arrived after %v", i+1, d)
			}
		case <-time.After(4 * time.Second):
			t.Fatalf("verdict %d not delivered before the 5 s tick", i+1)
		}
	}
}
