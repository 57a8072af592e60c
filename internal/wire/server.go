package wire

import (
	"encoding/binary"
	"errors"
	"sync"
	"time"

	"dpiservice/internal/packet"
)

// defaultIdleTimeout expires sessions that have gone silent; a session
// whose peer was SIGKILLed is reclaimed after this long.
const defaultIdleTimeout = 2 * time.Minute

// HoldFrames is how many frames of one session an OnData handler may
// keep payloads of at a time (see OnData): far below the default
// 256-frame reorder window whose slots those payloads alias.
const HoldFrames = 64

// Session is one authenticated peer on a Server: its reliability
// endpoint, its per-peer frame stager, and its identity from the Hello
// payload. Handler callbacks receive the session and may reply on it
// via SendResult/SendVerdict; those methods are only valid from
// handler context (the server's receive goroutine, up to and including
// the OnBatchEnd hook of the batch that delivered to the session),
// which is also what serializes all session state. Replies are staged;
// the server acks and flushes each session once per transport batch.
type Session struct {
	srv      *Server
	addr     Addr
	id       string
	ep       *Endpoint
	st       *stager
	emit     Emit
	lastRecv int64
	touched  bool // on srv.touched: ack and flush owed at end of batch

	// pending holds reliable frames that found the send window full.
	// Handlers run on the receive loop, so they cannot block on window
	// space the way Conn callers do; queued frames drain as acks arrive.
	// Reliability is preserved — nothing is dropped — at the cost of
	// cold-path allocation when a peer stops acking.
	pending []pendingFrame

	// Trace context of the frame currently being delivered (FlagTrace
	// frames only); valid in handler context, cleared after dispatch.
	curTraceID uint64
	curPktIdx  uint32
}

type pendingFrame struct {
	typ Type
	buf []byte
}

// ID returns the peer identity announced in its Hello.
func (s *Session) ID() string { return s.id }

// RemoteAddr returns the peer's transport address.
func (s *Session) RemoteAddr() Addr { return s.addr }

// Stats snapshots the session's endpoint counters. Handler context
// only.
func (s *Session) Stats() Stats { return s.ep.Stats() }

// Trace returns the in-band trace context of the frame currently being
// handled: the trace ID and per-flow packet index carried by a
// FlagTrace frame, or ok=false for untraced traffic. Handler context
// only.
func (s *Session) Trace() (traceID uint64, pktIdx uint32, ok bool) {
	return s.curTraceID, s.curPktIdx, s.curTraceID != 0
}

// SinceRecv returns the nanoseconds elapsed since the datagram batch
// carrying the current frame was read from the transport — the wire
// decode+dispatch latency of the packet being handled. Handler context
// only.
func (s *Session) SinceRecv() int64 { return s.srv.now() - s.srv.nowNanos }

// SendResult queues the reliable TResult answering dataSeq. Handler
// context only.
func (s *Session) SendResult(dataSeq uint32, report []byte) error {
	scratch := s.srv.scratch[:0]
	var hdr [ResultHdrLen]byte
	binary.BigEndian.PutUint32(hdr[:], dataSeq)
	scratch = append(scratch, hdr[:]...)
	scratch = append(scratch, report...)
	s.srv.scratch = scratch[:0]
	return s.sendReliable(TResult, scratch)
}

// SendVerdict queues a reliable TVerdict toward this peer. Handler
// context only.
func (s *Session) SendVerdict(tag uint16, tuple packet.FiveTuple, report []byte) error {
	scratch := AppendData(s.srv.scratch[:0], tag, tuple, report)
	s.srv.scratch = scratch[:0]
	return s.sendReliable(TVerdict, scratch)
}

// sendReliable submits one frame, spilling to the pending queue when
// the window is full (order-preserving: once anything is queued, all
// later frames queue behind it).
//
//dpi:hotpath
func (s *Session) sendReliable(t Type, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return ErrPayloadSplit
	}
	if !s.st.fits(len(payload)) {
		s.srv.met.addOversize()
		return ErrPayloadSplit
	}
	if s.ep.Dead() {
		return ErrSessionDead
	}
	if len(s.pending) == 0 {
		_, err := s.ep.Send(t, payload, s.srv.nowNanos, s.emit)
		if err != ErrWindowFull {
			return err
		}
	}
	s.enqueue(t, payload)
	return nil
}

// enqueue spills one frame to the overflow queue (cold path; this is
// the one allocating corner of the server, taken only when a peer
// stops draining its window).
func (s *Session) enqueue(t Type, payload []byte) {
	s.pending = append(s.pending, pendingFrame{typ: t, buf: append([]byte(nil), payload...)})
}

// drainPending moves queued frames into the window as space opens.
//
//dpi:hotpath
func (s *Session) drainPending(now int64) {
	i := 0
	for ; i < len(s.pending); i++ {
		if _, err := s.ep.Send(s.pending[i].typ, s.pending[i].buf, now, s.emit); err != nil {
			break
		}
	}
	if i > 0 {
		s.pending = s.pending[:copy(s.pending, s.pending[i:])]
	}
}

// Server terminates wire sessions on one transport: it validates
// controller-issued session tokens at Hello (cryptographically, via
// the cluster key) and per frame (against the session), runs one
// reliability endpoint per peer, and dispatches delivered frames to
// the OnData/OnVerdict handlers. Handlers run on the receive
// goroutine: the server is a single-threaded event loop, with a
// ticker goroutine borrowing the same lock for retransmission and
// session expiry.
//
// The loop is batch-scoped: every frame of one ReadBatch is dispatched,
// then the OnBatchEnd hook runs, then each session that received
// anything gets at most one TAck and one stager flush. A handler that
// replies inline and one that defers its replies to the hook therefore
// cost the same number of acks and write syscalls.
type Server struct {
	tr  Transport
	cfg Config
	key uint64
	met *Metrics

	clockBase time.Time
	done      chan struct{}
	wg        sync.WaitGroup
	idle      time.Duration

	onHello    func(s *Session)
	onData     func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte)
	onVerdict  func(s *Session, tag uint16, tuple packet.FiveTuple, report []byte)
	onBatchEnd func()
	logf       func(format string, args ...any)

	mu       sync.Mutex
	sessions map[Addr]*Session
	touched  []*Session // sessions that received frames in the current batch
	closed   bool
	nowNanos int64 // clock snapshot for the event being processed
	ackBuf   []byte
	scratch  []byte // reply payload assembly, reused across handlers
	expired  []Addr // reusable scratch for the expiry sweep
	wrErr    error
}

// NewServer wraps a bound transport. key is the cluster key session
// tokens are validated against; cfg zero-values select defaults; met
// may be nil. Register handlers, then Start.
func NewServer(tr Transport, key uint64, cfg Config, met *Metrics) *Server {
	cfg.defaults()
	return &Server{
		tr:        tr,
		cfg:       cfg,
		key:       key,
		met:       met,
		clockBase: time.Now(),
		done:      make(chan struct{}),
		idle:      defaultIdleTimeout,
		logf:      func(string, ...any) {},
		sessions:  make(map[Addr]*Session),
		touched:   make([]*Session, 0, DefaultBatch),
		ackBuf:    make([]byte, SackBytes(cfg.Window)),
		scratch:   make([]byte, 0, MaxFramePayload),
	}
}

// OnHello registers the new-session callback. Before Start only.
func (v *Server) OnHello(fn func(s *Session)) { v.onHello = fn }

// OnData registers the packet handler. Before Start only.
//
// Payload lifetime: payload aliases the session's reorder-window slot
// for seq. A handler may keep it past its own return — to scan several
// frames together — but only until HoldFrames further frames have been
// delivered to it for that session, and never past the OnBatchEnd hook
// of the current batch: the slot is rewritten when frame seq+Window
// arrives, which a peer honouring its send window cannot send before
// seq's result or ack has left this server. A handler that holds
// payloads must therefore register OnBatchEnd and release everything
// there.
func (v *Server) OnData(fn func(s *Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte)) {
	v.onData = fn
}

// OnVerdict registers the verdict handler. Before Start only.
func (v *Server) OnVerdict(fn func(s *Session, tag uint16, tuple packet.FiveTuple, report []byte)) {
	v.onVerdict = fn
}

// OnBatchEnd registers a hook that runs on the receive goroutine, in
// handler context, after every frame of one transport ReadBatch has
// been dispatched and before the batch's acks and replies are flushed.
// It is where a handler that collects frames across OnData calls does
// the collected work and replies. Before Start only.
func (v *Server) OnBatchEnd(fn func()) { v.onBatchEnd = fn }

// SetLogf routes server diagnostics. Before Start only.
func (v *Server) SetLogf(fn func(format string, args ...any)) { v.logf = fn }

// SetIdleTimeout overrides session expiry. Before Start only.
func (v *Server) SetIdleTimeout(d time.Duration) { v.idle = d }

// now returns server-relative monotonic nanoseconds.
func (v *Server) now() int64 { return int64(time.Since(v.clockBase)) }

// Start launches the receive and ticker goroutines.
func (v *Server) Start() {
	if w := v.met.noteSocket(v.tr); w != "" {
		v.logf("%s", w)
	}
	v.wg.Add(2)
	go v.recvLoop()
	go v.tickLoop()
}

// LocalAddr returns the bound transport address.
func (v *Server) LocalAddr() Addr { return v.tr.LocalAddr() }

// SessionCount returns the number of live sessions.
func (v *Server) SessionCount() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.sessions)
}

// writeOut is the session stager's sink. A datagram refused for its
// size shrinks the session's budget; the first other write error is
// logged.
func (s *Session) writeOut(dgs []Datagram) {
	v := s.srv
	_, err := v.tr.WriteBatch(dgs)
	switch {
	case err == nil:
	case errors.Is(err, ErrMsgSize):
		s.st.refused(v.tr)
	case v.wrErr == nil && !v.closed:
		v.wrErr = err
		v.logf("wire server: write: %v", err)
	}
}

// recvLoop drains transport batches and dispatches frames to sessions.
func (v *Server) recvLoop() {
	defer v.wg.Done()
	dgs := make([]Datagram, DefaultBatch)
	for i := range dgs {
		dgs[i].Buf = make([]byte, 0, MaxDatagram)
	}
	for {
		n, err := v.tr.ReadBatch(dgs)
		if err != nil {
			v.mu.Lock()
			closed := v.closed
			v.mu.Unlock()
			if !closed {
				v.logf("wire server: read: %v", err)
			}
			return
		}
		now := v.now()
		v.mu.Lock()
		v.met.addBatchIn(uint64(n))
		v.nowNanos = now
		for i := 0; i < n; i++ {
			v.handleDatagram(dgs[i].Addr, dgs[i].Buf)
		}
		v.endBatch()
		v.mu.Unlock()
	}
}

// handleDatagram walks one datagram's frames and marks their sessions
// as owed an ack and a flush at the end of the batch. Caller holds mu.
//
//dpi:hotpath
func (v *Server) handleDatagram(from Addr, buf []byte) {
	size := len(buf)
	for len(buf) > 0 {
		h, payload, rest, err := NextFrame(buf)
		if err != nil {
			v.met.addBadFrame()
			break
		}
		buf = rest
		v.met.addFramesIn(1, uint64(HeaderLen+len(payload)))
		s := v.handleFrame(from, h, payload)
		if s == nil {
			continue
		}
		// The peer sends DF datagrams sized to the path it measured: one
		// that arrived is proof the path carries that much, at least this
		// way, and the reply budget follows it.
		if size > s.st.budget {
			s.st.raise(size)
		}
		if !s.touched {
			s.touched = true
			v.touched = append(v.touched, s)
		}
	}
}

// endBatch closes one ReadBatch: the handler's end-of-batch hook, then
// for every session that received frames one ack (if due) and one
// flush of whatever the handlers staged. Caller holds mu.
//
//dpi:hotpath
func (v *Server) endBatch() {
	if v.onBatchEnd != nil {
		v.onBatchEnd()
	}
	for _, sess := range v.touched {
		sess.touched = false
		sess.drainPending(v.nowNanos)
		if sess.ep.AckDue() {
			sess.ep.BuildAck(v.ackBuf, sess.emit)
		}
		sess.st.flush()
	}
	clear(v.touched) // an expired session must not stay reachable from here
	v.touched = v.touched[:0]
}

// handleFrame dispatches one frame and returns the session it belongs
// to (nil when rejected). Caller holds mu.
//
//dpi:hotpath
func (v *Server) handleFrame(from Addr, h Header, payload []byte) *Session {
	sess := v.sessions[from]
	if h.Type == THello {
		return v.handleHello(from, sess, h, payload)
	}
	if sess == nil || h.Token != sess.ep.Token() {
		v.met.addBadToken()
		return nil
	}
	sess.lastRecv = v.nowNanos
	switch h.Type {
	case TAck:
		sess.ep.HandleAck(h.Ack, payload, v.nowNanos, sess.emit)
	case TData, TResult, TVerdict:
		sess.ep.HandleFrame(h, payload, v.nowNanos, sess.deliver, sess.emit)
	}
	return sess
}

// handleHello validates the token, creating (or, on a client restart
// from the same address with a fresh token, replacing) the session,
// and re-acks duplicates idempotently.
func (v *Server) handleHello(from Addr, sess *Session, h Header, payload []byte) *Session {
	if sess == nil || sess.ep.Token() != h.Token {
		if !ValidToken(v.key, h.Token) {
			v.met.addBadToken()
			return nil
		}
		if sess != nil {
			v.met.sessionDelta(-1)
		}
		//dpi:coldalloc(hello path: one session per peer, identity copied once)
		sess = v.newSession(from, h.Token, string(payload))
		v.sessions[from] = sess
		v.met.sessionDelta(1)
		//dpi:coldalloc(hello path: logged once per session)
		v.logf("wire server: session %q from %s (datagram budget %d, path %d)", sess.id, from.String(), sess.st.budget, sess.st.path)
		if v.onHello != nil {
			v.onHello(sess)
		}
	}
	sess.lastRecv = v.nowNanos
	sess.st.stage(Header{Type: THelloAck, Token: h.Token, Seq: h.Seq}, nil)
	return sess
}

// newSession builds the per-peer state.
func (v *Server) newSession(from Addr, token uint64, id string) *Session {
	//dpi:coldalloc(session setup: endpoint and buffers allocated once per peer)
	s := &Session{
		srv:      v,
		addr:     from,
		id:       id,
		ep:       NewEndpoint(token, v.cfg, v.met),
		lastRecv: v.nowNanos,
	}
	//dpi:coldalloc(session setup: endpoint and buffers allocated once per peer)
	s.st = newStager(v.tr, from, v.met, s.writeOut)
	//dpi:coldalloc(session setup: method-value closure bound once per peer)
	s.ep.OnRepeatLoss(s.st.fallBack)
	//dpi:coldalloc(session setup: method-value closure bound once per peer)
	s.emit = s.st.stage
	return s
}

// deliver dispatches one in-order reliable frame to the handlers,
// exposing any in-band trace context through Session.Trace for the
// duration of the dispatch.
//
//dpi:hotpath
func (s *Session) deliver(t Type, seq uint32, flags uint8, payload []byte) {
	switch t {
	case TData:
		if s.srv.onData == nil {
			return
		}
		tag, tuple, rest, err := ParseDataHdr(payload)
		if err != nil {
			s.srv.met.addBadFrame()
			return
		}
		if flags&FlagTrace != 0 {
			id, idx, body, err := ParseTraceExt(rest)
			if err != nil {
				s.srv.met.addBadFrame()
				return
			}
			s.curTraceID, s.curPktIdx, rest = id, idx, body
		}
		s.srv.onData(s, seq, tag, tuple, rest)
		s.curTraceID, s.curPktIdx = 0, 0
	case TVerdict:
		if s.srv.onVerdict == nil {
			return
		}
		tag, tuple, rest, err := ParseDataHdr(payload)
		if err != nil {
			s.srv.met.addBadFrame()
			return
		}
		if flags&FlagTrace != 0 {
			id, idx, body, err := ParseTraceExt(rest)
			if err != nil {
				s.srv.met.addBadFrame()
				return
			}
			s.curTraceID, s.curPktIdx, rest = id, idx, body
		}
		s.srv.onVerdict(s, tag, tuple, rest)
		s.curTraceID, s.curPktIdx = 0, 0
	}
}

// tickLoop drives retransmission, pending drains and session expiry.
func (v *Server) tickLoop() {
	defer v.wg.Done()
	t := time.NewTicker(v.cfg.RTOBase / 4)
	defer t.Stop()
	for {
		select {
		case <-v.done:
			return
		case <-t.C:
			v.tickOnce()
		}
	}
}

// tickOnce runs one maintenance pass over every session.
func (v *Server) tickOnce() {
	now := v.now()
	v.mu.Lock()
	v.nowNanos = now
	v.expired = v.expired[:0]
	budget := 0
	for addr, sess := range v.sessions {
		alive := sess.ep.Tick(now, sess.emit)
		sess.drainPending(now)
		if sess.ep.AckDue() {
			sess.ep.BuildAck(v.ackBuf, sess.emit)
		}
		sess.st.flush()
		if budget == 0 || sess.st.budget < budget {
			budget = sess.st.budget
		}
		if !alive || now-sess.lastRecv > int64(v.idle) {
			v.expired = append(v.expired, addr)
		}
	}
	if budget > 0 {
		v.met.setBudget(budget)
	}
	for _, addr := range v.expired {
		sess := v.sessions[addr]
		delete(v.sessions, addr)
		v.met.sessionDelta(-1)
		v.met.flightSessionDead(sess.ep.Token(), sess.ep.Dead())
		v.logf("wire server: session %q expired (dead=%v)", sess.id, sess.ep.Dead())
	}
	v.mu.Unlock()
}

// Close shuts the server down and waits for its goroutines.
func (v *Server) Close() error {
	v.mu.Lock()
	if v.closed {
		v.mu.Unlock()
		return nil
	}
	v.closed = true
	close(v.done)
	n := len(v.sessions)
	v.sessions = make(map[Addr]*Session)
	v.mu.Unlock()
	for i := 0; i < n; i++ {
		v.met.sessionDelta(-1)
	}
	v.tr.Close()
	v.wg.Wait()
	return nil
}
