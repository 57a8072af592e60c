package wire

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// allocated returns the bytes f heap-allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSessionSetupAllocation pins what a session costs before its first
// frame: every instance start pays it for its server sessions and its
// verdict conn, and every load generator for its conn. Window slots get
// their buffers on first use, so neither grows with Window ×
// MaxFramePayload (8 MiB at the default window).
func TestSessionSetupAllocation(t *testing.T) {
	var ep *Endpoint
	n := allocated(func() { ep = NewEndpoint(1, Config{}, nil) })
	t.Logf("NewEndpoint: %d bytes", n)
	if n >= 64<<10 {
		t.Errorf("NewEndpoint allocated %d bytes, want < 64 KiB", n)
	}
	runtime.KeepAlive(ep)

	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := DialUDP(srv.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var c *Conn
	n = allocated(func() { c = NewConn(tr, 1, "peer", Config{}, nil) })
	t.Logf("NewConn: %d bytes", n)
	if n >= 1<<20 {
		t.Errorf("NewConn allocated %d bytes, want < 1 MiB", n)
	}
	runtime.KeepAlive(c)
}

// TestSlotBuffersGrowOnDemand: a slot that held small frames takes a
// MaxFramePayload one, retransmits it whole, keeps its size afterwards,
// and once every slot has held its largest frame sending and receiving
// allocate nothing.
func TestSlotBuffersGrowOnDemand(t *testing.T) {
	cfg := Config{Window: 4}
	a, b := NewEndpoint(7, cfg, nil), NewEndpoint(7, cfg, nil)
	big := bytes.Repeat([]byte("0123456789abcdef"), MaxFramePayload/16)
	ackBuf := make([]byte, SackBytes(cfg.Window))
	var last []byte // b's last delivery, copied
	var now int64
	nop := func(Header, []byte) {}
	deliver := func(_ Type, _ uint32, _ uint8, p []byte) { last = append(last[:0], p...) }
	toB := func(h Header, p []byte) { b.HandleFrame(h, p, now, deliver, nop) }
	toA := func(h Header, sack []byte) { a.HandleAck(h.Ack, sack, now, nop) }
	exchange := func(payload []byte) {
		if _, err := a.Send(TData, payload, now, toB); err != nil {
			t.Fatal(err)
		}
		b.BuildAck(ackBuf, toA)
	}
	for i := 0; i < 2*cfg.Window; i++ {
		exchange([]byte("small"))
	}
	if c := cap(a.send[1].buf); c != slotMin {
		t.Fatalf("slot after small frames: cap %d, want %d", c, slotMin)
	}
	exchange(big) // seq 9, slot 1
	if !bytes.Equal(last, big) {
		t.Fatalf("large frame delivered as %d bytes, want %d", len(last), len(big))
	}

	// The next large frame is lost and goes out whole on retransmission.
	if _, err := a.Send(TData, big, now, nop); err != nil {
		t.Fatal(err)
	}
	last = last[:0]
	now += int64(time.Second)
	a.Tick(now, toB)
	b.BuildAck(ackBuf, toA)
	if !bytes.Equal(last, big) || a.InFlight() != 0 {
		t.Fatalf("retransmission delivered %d bytes, %d frames in flight", len(last), a.InFlight())
	}

	exchange([]byte("small again"))
	if c := cap(a.send[1].buf); c < MaxFramePayload {
		t.Errorf("slot shrank: cap %d after holding a %d-byte frame", c, MaxFramePayload)
	}
	for i := 0; i < cfg.Window; i++ {
		exchange(big)
	}
	if n := testing.AllocsPerRun(50, func() { exchange(big) }); n != 0 {
		t.Errorf("steady state: %v allocs per frame, want 0", n)
	}
}
