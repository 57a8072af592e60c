package wire

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"dpiservice/internal/packet"
)

// ErrTimeout reports an expired wait (hello handshake, WaitIdle).
var ErrTimeout = errors.New("wire: timed out")

// stager coalesces emitted frames into datagrams and hands full
// batches to its write function. All buffers are preallocated; staging
// is allocation free. Owners serialize access under their own mutex.
//
// How large a datagram may grow is the path's business, not a constant:
// path is what the transport reports for this peer (Transport.PathBudget
// — the kernel's route MTU less headers on UDP, coalesceBudget where it
// cannot be asked) and budget, never above it, is the ceiling in use. A
// Conn starts at the path's size; a server session starts at the default
// and follows the largest datagram its peer has delivered. The budget is
// a ceiling for coalescing only: every flush point sends what is staged,
// however little.
type stager struct {
	dgs   []Datagram
	n     int // datagrams staged; dgs[n-1] is open for coalescing
	addr  Addr
	met   *Metrics
	write func(dgs []Datagram)

	budget int
	path   int
	// strict: the transport refuses to fragment, so a frame that does not
	// fit a path-sized datagram cannot be sent at all (fits). Otherwise a
	// frame above the budget rides alone.
	strict bool
	// fellBack pins the budget at the default for the rest of the
	// session: the path ate the larger datagrams it was said to carry.
	fellBack bool
}

func newStager(tr Transport, addr Addr, met *Metrics, write func([]Datagram)) *stager {
	//dpi:coldalloc(session setup: all staging buffers preallocated once per peer)
	s := &stager{addr: addr, met: met, write: write}
	s.path, s.strict = tr.PathBudget(addr)
	s.setBudget(min(coalesceBudget, s.path))
	//dpi:coldalloc(session setup: all staging buffers preallocated once per peer)
	s.dgs = make([]Datagram, DefaultBatch)
	for i := range s.dgs {
		//dpi:coldalloc(session setup: all staging buffers preallocated once per peer)
		s.dgs[i].Buf = make([]byte, 0, MaxDatagram)
	}
	return s
}

// stage appends one frame, opening a new datagram when the current one
// is at budget and writing the whole batch out when all slots fill.
//
//dpi:hotpath
func (s *stager) stage(h Header, payload []byte) {
	need := HeaderLen + len(payload)
	if s.n == 0 || len(s.dgs[s.n-1].Buf)+need > s.budget {
		if s.n == len(s.dgs) {
			s.flush()
		}
		s.n++
		cur := &s.dgs[s.n-1]
		cur.Buf = cur.Buf[:0]
		cur.Addr = s.addr
	}
	cur := &s.dgs[s.n-1]
	cur.Buf = AppendFrame(cur.Buf, h, payload)
	s.met.addFramesOut(1, uint64(HeaderLen+len(payload)))
}

// flush writes every staged datagram.
//
//dpi:hotpath
func (s *stager) flush() {
	if s.n == 0 {
		return
	}
	s.write(s.dgs[:s.n])
	s.met.addBatchOut(uint64(s.n))
	s.n = 0
}

// refused is the owner's answer to ErrMsgSize from a write: the path
// refused a datagram the budget allowed. Nothing is lost — the frames
// it carried are still in their send slots and retransmission re-stages
// them — but the budget must shrink first. The transport is asked again
// (the kernel may have learned a smaller path MTU since); if its answer
// does not explain the refusal the session falls back to the default.
func (s *stager) refused(tr Transport) {
	s.met.addEmsgsize()
	s.path, s.strict = tr.PathBudget(s.addr)
	if s.path < s.budget {
		s.setBudget(s.path)
	} else {
		s.fallBack()
	}
}

// setBudget moves the ceiling and publishes it (wire.datagram_budget).
func (s *stager) setBudget(b int) {
	s.budget = b
	s.met.setBudget(b)
}

// raise lifts the budget toward size, as far as the path goes.
func (s *stager) raise(size int) {
	if b := min(size, s.path); b > s.budget && !s.fellBack {
		s.setBudget(b)
	}
}

// fallBack gives up a budget above the default for the rest of the
// session. It is how a path-MTU black hole — a hop that drops long
// datagrams and reports nothing — costs a few timeouts rather than the
// session: Endpoint.OnRepeatLoss calls it when a frame's retransmission
// has itself timed out.
func (s *stager) fallBack() {
	if s.budget <= coalesceBudget {
		return
	}
	s.met.budgetFallback(s.budget, coalesceBudget)
	s.fellBack = true
	s.setBudget(coalesceBudget)
}

// fits reports whether a frame with this payload can be sent at all.
//
//dpi:hotpath
func (s *stager) fits(payload int) bool {
	return !s.strict || HeaderLen+payload <= s.path
}

// Conn is the client side of a wire session: it dials a Transport,
// performs the Hello handshake with the controller-issued session
// token, and then exchanges reliable frames with the server. Two
// goroutines service it — a receive loop draining transport batches
// and a ticker driving retransmission — while callers block on
// SendData/SendVerdict under window backpressure.
type Conn struct {
	tr    Transport
	cfg   Config
	met   *Metrics
	id    string
	token uint64

	clockBase time.Time
	done      chan struct{}
	wg        sync.WaitGroup

	// onResult receives each in-order TResult: the echoed data seq and
	// the report bytes (valid only during the call). Runs on the receive
	// goroutine; set before Start.
	onResult func(dataSeq uint32, report []byte)

	mu      sync.Mutex
	cond    *sync.Cond
	ep      *Endpoint
	st      *stager
	emit    Emit
	helloOK bool
	closed  bool
	err     error
	ackBuf  []byte
	scratch []byte // frame payload assembly (data subheader + app bytes)
	// sent is the endpoint's next seq when the stager last wrote: the
	// reliable frames below it have gone out (Push).
	sent uint32
}

// NewConn wraps an already-dialed transport as a client session
// authenticated by token. cfg zero-values select defaults; met may be
// nil. Call Start to handshake.
func NewConn(tr Transport, token uint64, id string, cfg Config, met *Metrics) *Conn {
	cfg.defaults()
	c := &Conn{
		tr:        tr,
		cfg:       cfg,
		met:       met,
		id:        id,
		token:     token,
		clockBase: time.Now(),
		done:      make(chan struct{}),
		ackBuf:    make([]byte, SackBytes(cfg.Window)),
		scratch:   make([]byte, 0, MaxFramePayload),
	}
	c.cond = sync.NewCond(&c.mu)
	c.ep = NewEndpoint(token, cfg, met)
	c.st = newStager(tr, Addr{}, met, c.writeOut)
	c.st.raise(c.st.path) // a client speaks first: it starts at the path's size
	c.ep.OnRepeatLoss(c.st.fallBack)
	c.emit = c.st.stage
	met.noteSocket(tr)
	return c
}

// Budget returns the datagram size the conn currently coalesces up to.
func (c *Conn) Budget() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.budget
}

// OnResult registers the result callback. Must be called before Start.
func (c *Conn) OnResult(fn func(dataSeq uint32, report []byte)) { c.onResult = fn }

// now returns session-relative monotonic nanoseconds.
func (c *Conn) now() int64 { return int64(time.Since(c.clockBase)) }

// writeOut is the stager's sink. A datagram refused for its size
// shrinks the budget; any other transport error poisons the conn.
func (c *Conn) writeOut(dgs []Datagram) {
	c.sent = c.ep.sendSeq
	_, err := c.tr.WriteBatch(dgs)
	switch {
	case err == nil:
	case errors.Is(err, ErrMsgSize):
		c.st.refused(c.tr)
	case c.err == nil && !c.closed:
		c.err = err
	}
}

// helloResend is the Hello retry cadence while the server stays silent.
const helloResend = 25 * time.Millisecond

// Start launches the service goroutines and performs the Hello
// handshake, resending every helloResend until the server acks or
// timeout expires. It returns as soon as the receive loop has seen the
// ack.
func (c *Conn) Start(timeout time.Duration) error {
	c.met.sessionDelta(1)
	c.wg.Add(2)
	go c.recvLoop()
	go c.tickLoop()
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.helloOK {
			return nil
		}
		if err := c.stateErr(); err != nil {
			return err
		}
		c.st.stage(Header{Type: THello, Token: c.token}, []byte(c.id))
		c.st.flush()
		now := time.Now()
		if now.After(deadline) {
			return ErrTimeout
		}
		resend := now.Add(helloResend)
		if resend.After(deadline) {
			resend = deadline
		}
		c.waitUntil(resend, func() bool { return c.helloOK })
	}
}

// waitUntil blocks on cond until done holds, the conn fails, or the
// clock reaches at. The receive loop broadcasts after every batch and
// the ticker every RTOBase/4; a timer covers the instant at itself.
// Caller holds mu.
func (c *Conn) waitUntil(at time.Time, done func() bool) {
	timer := time.AfterFunc(time.Until(at), c.wake)
	defer timer.Stop()
	for !done() && c.stateErr() == nil && time.Now().Before(at) {
		c.cond.Wait()
	}
}

// wake is waitUntil's timer: it runs on the timer's goroutine. Taking
// mu orders the broadcast after the waiter's check of the clock, so the
// wakeup cannot fall between that check and Wait.
func (c *Conn) wake() {
	c.mu.Lock()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// stateErr returns the sticky failure, if any. Caller holds mu.
func (c *Conn) stateErr() error {
	if c.err != nil {
		return c.err
	}
	if c.closed {
		return ErrClosed
	}
	return nil
}

// recvLoop drains transport batches into the endpoint.
func (c *Conn) recvLoop() {
	defer c.wg.Done()
	dgs := make([]Datagram, DefaultBatch)
	for i := range dgs {
		dgs[i].Buf = make([]byte, 0, MaxDatagram)
	}
	for {
		n, err := c.tr.ReadBatch(dgs)
		if err != nil {
			c.fail(err)
			return
		}
		now := c.now()
		c.mu.Lock()
		c.met.addBatchIn(uint64(n))
		for i := 0; i < n; i++ {
			c.handleDatagram(dgs[i].Buf, now)
		}
		if c.ep.AckDue() {
			c.ep.BuildAck(c.ackBuf, c.emit)
		}
		c.st.flush()
		c.mu.Unlock()
		c.cond.Broadcast()
	}
}

// handleDatagram walks the frames packed in one datagram. Caller holds
// mu.
//
//dpi:hotpath
func (c *Conn) handleDatagram(buf []byte, now int64) {
	for len(buf) > 0 {
		h, payload, rest, err := NextFrame(buf)
		if err != nil {
			c.met.addBadFrame()
			return
		}
		buf = rest
		c.met.addFramesIn(1, uint64(HeaderLen+len(payload)))
		if h.Token != c.token {
			c.met.addBadToken()
			continue
		}
		switch h.Type {
		case THelloAck:
			c.helloOK = true
		case TAck:
			c.ep.HandleAck(h.Ack, payload, now, c.emit)
		case TData, TResult, TVerdict:
			c.ep.HandleFrame(h, payload, now, c.deliver, c.emit)
		}
	}
}

// deliver dispatches in-order reliable frames; clients only consume
// results.
//
//dpi:hotpath
func (c *Conn) deliver(t Type, seq uint32, flags uint8, payload []byte) {
	if t != TResult || c.onResult == nil || len(payload) < ResultHdrLen {
		return
	}
	dataSeq := binary.BigEndian.Uint32(payload[:ResultHdrLen])
	c.onResult(dataSeq, payload[ResultHdrLen:])
}

// tickLoop drives retransmission and pending acks.
func (c *Conn) tickLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.RTOBase / 4)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			now := c.now()
			c.mu.Lock()
			alive := c.ep.Tick(now, c.emit)
			if c.ep.AckDue() {
				c.ep.BuildAck(c.ackBuf, c.emit)
			}
			c.st.flush()
			if !alive && c.err == nil {
				c.err = ErrSessionDead
			}
			c.mu.Unlock()
			c.cond.Broadcast()
		}
	}
}

// fail records a terminal error (unless the conn is closing).
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil && !c.closed {
		c.err = err
	}
	c.mu.Unlock()
	c.cond.Broadcast()
}

// SendData queues one packet (chain tag, five-tuple, payload) on the
// reliable channel, blocking while the send window is full. It returns
// the frame seq, which the matching TResult echoes.
func (c *Conn) SendData(tag uint16, tuple packet.FiveTuple, payload []byte) (uint32, error) {
	return c.sendReliable(TData, 0, tag, tuple, 0, 0, payload)
}

// SendDataTraced is SendData with in-band trace context: the frame
// carries FlagTrace and the 12-byte trace extension, so every stage
// downstream records spans under traceID.
func (c *Conn) SendDataTraced(tag uint16, tuple packet.FiveTuple, traceID uint64, pktIdx uint32, payload []byte) (uint32, error) {
	return c.sendReliable(TData, FlagTrace, tag, tuple, traceID, pktIdx, payload)
}

// SendVerdict queues one match verdict (instance → middlebox
// consumer) on the reliable channel.
func (c *Conn) SendVerdict(tag uint16, tuple packet.FiveTuple, report []byte) error {
	_, err := c.sendReliable(TVerdict, 0, tag, tuple, 0, 0, report)
	return err
}

// SendVerdictTraced is SendVerdict with in-band trace context, so the
// consuming middlebox's spans join the packet's trace.
func (c *Conn) SendVerdictTraced(tag uint16, tuple packet.FiveTuple, traceID uint64, pktIdx uint32, report []byte) error {
	_, err := c.sendReliable(TVerdict, FlagTrace, tag, tuple, traceID, pktIdx, report)
	return err
}

// sendReliable assembles tag+tuple[+trace]+body and submits it, waiting
// out window backpressure.
func (c *Conn) sendReliable(t Type, flags uint8, tag uint16, tuple packet.FiveTuple, traceID uint64, pktIdx uint32, body []byte) (uint32, error) {
	c.mu.Lock()
	for {
		if err := c.stateErr(); err != nil {
			c.mu.Unlock()
			return 0, err
		}
		if flags&FlagTrace != 0 {
			c.scratch = AppendDataTraced(c.scratch[:0], tag, tuple, traceID, pktIdx, body)
		} else {
			c.scratch = AppendData(c.scratch[:0], tag, tuple, body)
		}
		if !c.st.fits(len(c.scratch)) {
			c.mu.Unlock()
			c.met.addOversize()
			return 0, ErrPayloadSplit
		}
		seq, err := c.ep.SendEx(t, flags, c.scratch, c.now(), c.emit)
		if err == ErrWindowFull {
			// The window reopens on the peer's ack, and the peer acks
			// what it has received: frames still in the stager would
			// hold the sender here until the next tick.
			c.st.flush()
			c.cond.Wait()
			continue
		}
		c.mu.Unlock()
		return seq, err
	}
}

// Flush pushes any staged frames to the transport immediately.
func (c *Conn) Flush() {
	c.mu.Lock()
	c.st.flush()
	c.mu.Unlock()
}

// Push sends the staged frames now unless frames already sent are
// still unacked. Their ack is then on its way, and the receive loop
// flushes after every batch it reads, so what Push leaves staged goes
// out when the ack arrives, within a round trip. A conn with nothing
// in flight thus sends at once, and a busy one writes once per round
// trip instead of once per Push; without either, staged frames wait for
// the tick (RTOBase/4).
func (c *Conn) Push() {
	c.mu.Lock()
	if int32(c.ep.sendBase-c.sent) >= 0 {
		c.st.flush()
	}
	c.mu.Unlock()
}

// WaitIdle blocks until every sent frame has been acked, the session
// fails, or timeout expires. It returns as soon as the receive loop has
// processed the last ack.
func (c *Conn) WaitIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.flush()
	idle := func() bool { return c.ep.InFlight() == 0 && c.st.n == 0 }
	c.waitUntil(deadline, idle)
	if idle() {
		return c.err
	}
	if err := c.stateErr(); err != nil {
		return err
	}
	return ErrTimeout
}

// Stats snapshots the endpoint protocol counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ep.Stats()
}

// Err returns the sticky failure, if any.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close shuts the conn down and waits for its goroutines.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	c.mu.Unlock()
	c.cond.Broadcast()
	c.tr.Close()
	c.wg.Wait()
	c.met.sessionDelta(-1)
	return nil
}
