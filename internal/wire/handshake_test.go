package wire

import (
	"sync"
	"testing"
	"time"
)

// scriptedPeer is a client Transport whose far end is the test itself:
// every frame the Conn writes goes to answer, which may reply with
// frames of its own through reply. Counting the frames that cross it
// pins the handshake's behaviour without timing it.
type scriptedPeer struct {
	answer func(h Header, payload []byte) // runs under the Conn's mutex
	in     chan []byte
	done   chan struct{}
	close  sync.Once
}

func newScriptedPeer(answer func(h Header, payload []byte)) *scriptedPeer {
	return &scriptedPeer{answer: answer, in: make(chan []byte, 64), done: make(chan struct{})}
}

// reply queues one frame for the Conn's receive loop.
func (p *scriptedPeer) reply(h Header, payload []byte) { p.in <- AppendFrame(nil, h, payload) }

func (p *scriptedPeer) WriteBatch(dgs []Datagram) (int, error) {
	for _, dg := range dgs {
		for buf := dg.Buf; len(buf) > 0; {
			h, payload, rest, err := NextFrame(buf)
			if err != nil {
				return 0, err
			}
			p.answer(h, payload)
			buf = rest
		}
	}
	return len(dgs), nil
}

func (p *scriptedPeer) ReadBatch(dgs []Datagram) (int, error) {
	select {
	case b := <-p.in:
		dgs[0].Buf = append(dgs[0].Buf[:0], b...)
		dgs[0].Addr = Addr{}
		return 1, nil
	case <-p.done:
		return 0, ErrClosed
	}
}

func (p *scriptedPeer) PathBudget(Addr) (int, bool) { return coalesceBudget, false }
func (p *scriptedPeer) LocalAddr() Addr             { return Addr{Name: "scripted"} }
func (p *scriptedPeer) Close() error {
	p.close.Do(func() { close(p.done) })
	return nil
}

// quietCfg ticks every 2 s and never retransmits in test time, so every
// wakeup a test sees comes from a frame the peer sent.
var quietCfg = Config{RTOBase: 8 * time.Second, JitterSeed: 7}

// handshake starts a Conn against a peer that ignores the first drop
// Hellos and acks every later one, and returns the number of Hellos the
// Conn sent and the Start error.
func handshake(t *testing.T, drop int) (hellos int, err error) {
	t.Helper()
	token := IssueToken(testKey, 1)
	var peer *scriptedPeer
	peer = newScriptedPeer(func(h Header, payload []byte) {
		if h.Type != THello {
			return
		}
		if hellos++; hellos > drop { // under the Conn's mutex
			peer.reply(Header{Type: THelloAck, Token: h.Token}, nil)
		}
	})
	c := NewConn(peer, token, "tg-1", quietCfg, nil)
	err = c.Start(5 * time.Second)
	c.Close()
	return hellos, err
}

func TestStartSendsOneHelloWhenLossless(t *testing.T) {
	hellos, err := handshake(t, 0)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if hellos != 1 {
		t.Fatalf("sent %d Hellos on a lossless path, want 1", hellos)
	}
}

func TestStartResendsALostHelloOnce(t *testing.T) {
	hellos, err := handshake(t, 1)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if hellos != 2 {
		t.Fatalf("sent %d Hellos with the first lost, want 2", hellos)
	}
}

func TestStartTimesOutOnSilence(t *testing.T) {
	peer := newScriptedPeer(func(Header, []byte) {})
	c := NewConn(peer, IssueToken(testKey, 1), "tg-1", quietCfg, nil)
	defer c.Close()
	if err := c.Start(60 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("Start against a silent peer = %v, want ErrTimeout", err)
	}
}

// TestWaitIdleWakesOnLastAck holds the peer's ack back and checks that
// WaitIdle waits for it and returns on its arrival, with the ticker two
// seconds away.
func TestWaitIdleWakesOnLastAck(t *testing.T) {
	token := IssueToken(testKey, 1)
	var last uint32 // highest data seq the peer has seen; under the Conn's mutex
	var peer *scriptedPeer
	peer = newScriptedPeer(func(h Header, payload []byte) {
		switch h.Type {
		case THello:
			peer.reply(Header{Type: THelloAck, Token: h.Token}, nil)
		case TData:
			last = max(last, h.Seq)
		}
	})
	c := NewConn(peer, token, "tg-1", quietCfg, nil)
	defer c.Close()
	if err := c.Start(5 * time.Second); err != nil {
		t.Fatalf("Start: %v", err)
	}
	const sends = 3
	for i := 0; i < sends; i++ {
		if _, err := c.SendData(3, testTuple, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	idle := make(chan error, 1)
	go func() { idle <- c.WaitIdle(5 * time.Second) }()

	// WaitIdle flushes what is staged; the frames reach the peer, but
	// no ack does.
	waitFor(t, 5*time.Second, "the data frames", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return last == sends
	})
	select {
	case err := <-idle:
		t.Fatalf("WaitIdle returned %v with %d frames unacked", err, sends)
	default:
	}

	peer.reply(Header{Type: TAck, Token: token, Ack: sends + 1}, nil)
	select {
	case err := <-idle:
		if err != nil {
			t.Fatalf("WaitIdle: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("WaitIdle still blocked a second after the last ack")
	}
	if n := c.Stats(); n.Sent != sends {
		t.Fatalf("stats = %+v, want %d sent", n, sends)
	}
}
