package wire

import "time"

// This file is the reliability core: one Endpoint per session side,
// owning an outgoing reliable stream (seq assignment, retransmission
// with exponential backoff and jitter, fast retransmit on duplicate
// acks) and an incoming reorder window (in-order delivery, duplicate
// suppression, selective acks). It is a pure state machine: the caller
// supplies the clock as nanoseconds and an emit callback that stages
// outgoing frames, so the whole protocol is testable under a virtual
// clock with no sockets and runs identically over UDP and netsim.
// Result frames must not be silently lost — fail-closed middlebox
// consumers drop traffic whose verdicts never arrive — so everything
// on the reliable channel is retransmitted until acked or the session
// is declared dead.
//
// An Endpoint is not internally synchronized; its owner (Conn or
// Server session) serializes calls under one mutex.

// Config tunes a session endpoint. The zero value selects defaults.
type Config struct {
	// Window is the send window and reorder window size in frames
	// (default 256). Frames arriving more than Window ahead of the next
	// expected seq are dropped (reorder-window overflow) and recovered
	// by sender retransmission.
	Window int
	// RTOBase is the initial retransmit timeout (default 40ms); each
	// retry doubles it up to RTOMax (default 1s), plus up to half
	// RTOBase of deterministic jitter so retransmit storms decorrelate.
	RTOBase time.Duration
	RTOMax  time.Duration
	// MaxRetries kills the session after this many retransmissions of a
	// single frame (default 12 — about 30 s of backoff).
	MaxRetries int
	// JitterSeed seeds the retransmit jitter generator (default 1);
	// tests fix it for reproducible schedules.
	JitterSeed uint64
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.RTOBase <= 0 {
		c.RTOBase = 40 * time.Millisecond
	}
	if c.RTOMax <= 0 {
		c.RTOMax = time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 12
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
}

// SackBytes returns the TAck bitmap size covering a window: one bit
// per seq past the cumulative ack. Ack buffers passed to BuildAck are
// sized with it, so selective acks span the entire send window — a
// short bitmap would force needless timer retransmits of received
// frames during a head-of-window stall.
func SackBytes(window int) int { return (window + 6) / 8 }

// Stats are an endpoint's protocol counters.
type Stats struct {
	Sent            uint64 // reliable frames first-sent
	Delivered       uint64 // reliable frames delivered in order
	Retransmits     uint64 // frames re-emitted (timer and fast)
	FastRetransmits uint64 // subset triggered by duplicate acks
	Dups            uint64 // duplicate frames received and discarded
	OverflowDrops   uint64 // frames beyond the reorder window
	AcksSent        uint64
}

type sendSlot struct {
	buf     []byte // frame payload (slotBuf)
	seq     uint32
	typ     Type
	flags   uint8 // header flags, re-emitted on every retransmission
	sentAt  int64 // nanoseconds of last (re)transmission
	retries int
	inUse   bool
	sacked  bool // selectively acked; held until cumulative ack passes
}

type recvSlot struct {
	buf     []byte
	seq     uint32
	typ     Type
	flags   uint8
	present bool
}

// Emit stages one outgoing frame; the payload is owned by the endpoint
// and valid only until the next endpoint call.
type Emit func(h Header, payload []byte)

// Deliver hands one in-order reliable frame up; the payload is owned
// by the endpoint and valid only during the call. flags are the frame's
// header flags (FlagTrace marks an in-band trace extension).
type Deliver func(t Type, seq uint32, flags uint8, payload []byte)

// Endpoint is one side's reliable-channel state for a session.
type Endpoint struct {
	cfg   Config
	token uint64 // stamped into every emitted frame

	// Send state. seqs sendBase..sendSeq-1 are in flight.
	sendSeq  uint32
	sendBase uint32
	send     []sendSlot
	dupAcks  int
	lastCum  uint32
	fastSeq  uint32 // last seq fast-retransmitted; fires once per stall
	dead     bool

	// Receive state. recvNext is the next seq to deliver.
	recvNext  uint32
	recv      []recvSlot
	ackNeeded bool

	rng uint64 // xorshift64 jitter state

	onRepeatLoss func() // see OnRepeatLoss

	stats Stats
	met   *Metrics
}

// NewEndpoint builds a session endpoint stamping token on every frame.
// met may be nil. A window slot gets its frame buffer on first use
// (slotBuf), so a session costs what its frames need, not Window ×
// MaxFramePayload up front; once every slot has held the session's
// largest frame the per-frame paths are allocation free.
func NewEndpoint(token uint64, cfg Config, met *Metrics) *Endpoint {
	cfg.defaults()
	//dpi:coldalloc(endpoint setup: once per session)
	e := &Endpoint{
		cfg:      cfg,
		token:    token,
		sendSeq:  1,
		sendBase: 1,
		recvNext: 1,
		rng:      cfg.JitterSeed,
		met:      met,
	}
	//dpi:coldalloc(endpoint setup: once per session)
	e.send = make([]sendSlot, cfg.Window)
	//dpi:coldalloc(endpoint setup: once per session)
	e.recv = make([]recvSlot, cfg.Window)
	return e
}

// slotMin is the smallest buffer a window slot gets: a frame of a
// full Ethernet MTU fits, so on the frames this system sends a slot is
// allocated once and never regrown.
const slotMin = 2 << 10

// slotBuf returns a slot's buffer emptied, with room for n bytes. It
// allocates on a slot's first frame, and again only for a frame larger
// than any the slot has held.
//
//dpi:hotpath
func slotBuf(buf []byte, n int) []byte {
	if cap(buf) >= n {
		return buf[:0]
	}
	return newSlotBuf(n)
}

// newSlotBuf is slotBuf's allocation, kept out of line so that it stays
// in one place rather than in every caller slotBuf is inlined into.
//
//go:noinline
func newSlotBuf(n int) []byte {
	//dpi:coldalloc(a window slot's first frame, or one larger than any it held)
	return make([]byte, 0, max(n, slotMin))
}

// OnRepeatLoss registers fn, which Tick calls before it re-emits a frame
// whose earlier retransmission has timed out as well. One timeout is
// ordinary loss; the same frame lost twice running is the signature of
// a path that eats the datagrams it rides in, and the owner's chance to
// send smaller ones — from this frame on. Set at setup, before traffic.
func (e *Endpoint) OnRepeatLoss(fn func()) { e.onRepeatLoss = fn }

// Stats returns a snapshot of the protocol counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Dead reports whether the session hit its retransmit limit.
func (e *Endpoint) Dead() bool { return e.dead }

// InFlight returns the number of unacked reliable frames.
func (e *Endpoint) InFlight() int { return int(e.sendSeq - e.sendBase) }

// Token returns the session token this endpoint stamps on frames.
func (e *Endpoint) Token() uint64 { return e.token }

// xorshift advances the jitter generator.
//
//dpi:hotpath
func (e *Endpoint) xorshift() uint64 {
	x := e.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	e.rng = x
	return x
}

// rto returns the jittered timeout for a frame on its nth retry.
//
//dpi:hotpath
func (e *Endpoint) rto(retries int) int64 {
	d := int64(e.cfg.RTOBase) << uint(retries)
	if max := int64(e.cfg.RTOMax); d > max || d <= 0 {
		d = max
	}
	jitterSpan := int64(e.cfg.RTOBase) / 2
	if jitterSpan > 0 {
		d += int64(e.xorshift() % uint64(jitterSpan))
	}
	return d
}

// Send places payload on the reliable channel as a frame of type t and
// emits it. The payload is copied; the caller keeps ownership. It
// fails with ErrWindowFull when Window frames are unacked (the caller
// applies backpressure) and ErrSessionDead once the retransmit limit
// has been hit.
//
//dpi:hotpath
func (e *Endpoint) Send(t Type, payload []byte, now int64, emit Emit) (uint32, error) {
	return e.SendEx(t, 0, payload, now, emit)
}

// SendEx is Send with explicit header flags. The flags are stored with
// the send slot, so every retransmission of the frame carries them —
// an in-band trace extension (FlagTrace) survives loss and recovery.
//
//dpi:hotpath
func (e *Endpoint) SendEx(t Type, flags uint8, payload []byte, now int64, emit Emit) (uint32, error) {
	if e.dead {
		return 0, ErrSessionDead
	}
	if len(payload) > MaxFramePayload {
		return 0, ErrPayloadSplit
	}
	if int(e.sendSeq-e.sendBase) >= e.cfg.Window {
		return 0, ErrWindowFull
	}
	seq := e.sendSeq
	e.sendSeq++
	s := &e.send[int(seq)%e.cfg.Window]
	s.buf = append(slotBuf(s.buf, len(payload)), payload...)
	s.seq = seq
	s.typ = t
	s.flags = flags
	s.sentAt = now
	s.retries = 0
	s.inUse = true
	s.sacked = false
	e.stats.Sent++
	emit(Header{Type: t, Flags: flags, Token: e.token, Seq: seq, Ack: e.recvNext}, s.buf)
	return seq, nil
}

// handleCumAck releases every slot below ack. countDup is set only for
// explicit TAck frames: frames coalesced into one datagram all carry
// the same piggybacked ack, so counting those as "duplicate acks"
// would fire a spurious fast retransmit on every batch.
//
//dpi:hotpath
func (e *Endpoint) handleCumAck(ack uint32, now int64, emit Emit, countDup bool) {
	if int32(ack-e.sendSeq) > 0 { // beyond anything sent: ignore
		return
	}
	advanced := false
	for int32(ack-e.sendBase) > 0 {
		s := &e.send[int(e.sendBase)%e.cfg.Window]
		if s.inUse && s.seq == e.sendBase {
			s.inUse = false
			s.sacked = false
		}
		e.sendBase++
		advanced = true
	}
	if advanced {
		e.dupAcks = 0
		e.lastCum = ack
		return
	}
	if countDup && ack == e.lastCum && e.sendBase == ack && e.InFlight() > 0 {
		e.dupAcks++
		// Three duplicate acks mean later frames are arriving while the
		// base is missing: retransmit it early — but only once per stall
		// (fastSeq); further dup acks are just more of the same evidence
		// and the timer covers a lost retransmission.
		if e.dupAcks >= 3 && e.fastSeq != e.sendBase {
			e.dupAcks = 0
			s := &e.send[int(e.sendBase)%e.cfg.Window]
			if s.inUse && s.seq == e.sendBase && !s.sacked {
				e.fastSeq = s.seq
				s.sentAt = now
				s.retries++
				e.stats.Retransmits++
				e.stats.FastRetransmits++
				e.met.addRetransmit()
				e.met.flightRetransmit(s.seq, s.retries)
				emit(Header{Type: s.typ, Flags: s.flags, Token: e.token, Seq: s.seq, Ack: e.recvNext}, s.buf)
			}
		}
		return
	}
	e.lastCum = ack
	if !countDup {
		return
	}
	e.dupAcks = 0
}

// HandleAck processes a TAck frame: the cumulative ack plus the
// selective bitmap payload (bit i, LSB-first within each byte, marks
// seq cum+1+i as received).
//
//dpi:hotpath
func (e *Endpoint) HandleAck(cum uint32, sack []byte, now int64, emit Emit) {
	e.handleCumAck(cum, now, emit, true)
	for b := 0; b < len(sack); b++ {
		bits := sack[b]
		if bits == 0 {
			continue
		}
		for j := 0; j < 8; j++ {
			if bits&(1<<uint(j)) == 0 {
				continue
			}
			seq := cum + 1 + uint32(8*b+j)
			if int32(seq-e.sendBase) < 0 || int32(seq-e.sendSeq) >= 0 {
				continue
			}
			s := &e.send[int(seq)%e.cfg.Window]
			if s.inUse && s.seq == seq {
				s.sacked = true
			}
		}
	}
}

// HandleFrame processes one incoming reliable frame: its piggybacked
// cumulative ack, then the seq against the reorder window. In-order
// frames (and any buffered successors they release) are handed to
// deliver; duplicates and frames beyond the window are dropped and
// counted. Every accepted or duplicate frame schedules an ack.
//
//dpi:hotpath
func (e *Endpoint) HandleFrame(h Header, payload []byte, now int64, deliver Deliver, emit Emit) {
	e.handleCumAck(h.Ack, now, emit, false)
	d := int32(h.Seq - e.recvNext)
	switch {
	case d < 0: // already delivered: re-ack so the sender releases it
		e.stats.Dups++
		e.met.addDup()
		e.ackNeeded = true
		return
	case int(d) >= e.cfg.Window: // beyond the reorder window
		e.stats.OverflowDrops++
		e.met.addOverflow()
		// Not acked: the sender retransmits once the window has moved.
		return
	}
	s := &e.recv[int(h.Seq)%e.cfg.Window]
	if s.present {
		e.stats.Dups++
		e.met.addDup()
		e.ackNeeded = true
		return
	}
	s.buf = append(slotBuf(s.buf, len(payload)), payload...)
	s.seq = h.Seq
	s.typ = h.Type
	s.flags = h.Flags
	s.present = true
	e.ackNeeded = true
	// Drain the in-order run this frame may have completed.
	for {
		n := &e.recv[int(e.recvNext)%e.cfg.Window]
		if !n.present || n.seq != e.recvNext {
			return
		}
		n.present = false
		e.recvNext++
		e.stats.Delivered++
		deliver(n.typ, n.seq, n.flags, n.buf)
	}
}

// Tick retransmits every timed-out unacked frame and reports whether
// the session is still alive. Call it periodically (a fraction of
// RTOBase).
//
//dpi:hotpath
func (e *Endpoint) Tick(now int64, emit Emit) bool {
	if e.dead {
		return false
	}
	for seq := e.sendBase; int32(seq-e.sendSeq) < 0; seq++ {
		s := &e.send[int(seq)%e.cfg.Window]
		if !s.inUse || s.seq != seq || s.sacked {
			continue
		}
		if now-s.sentAt < e.rto(s.retries) {
			continue
		}
		if s.retries >= e.cfg.MaxRetries {
			e.dead = true
			e.met.flightSessionDead(e.token, true)
			return false
		}
		if s.retries > 0 && e.onRepeatLoss != nil {
			e.onRepeatLoss()
		}
		s.sentAt = now
		s.retries++
		e.stats.Retransmits++
		e.met.addRetransmit()
		e.met.flightRetransmit(s.seq, s.retries)
		emit(Header{Type: s.typ, Flags: s.flags, Token: e.token, Seq: s.seq, Ack: e.recvNext}, s.buf)
	}
	return true
}

// AckDue reports whether received frames are waiting to be acked.
func (e *Endpoint) AckDue() bool { return e.ackNeeded }

// BuildAck emits a TAck frame — cumulative ack in the header, the
// selective bitmap as payload — and clears the ack-due flag. ackBuf
// must hold SackBytes(Window) bytes; the bitmap spans as much of the
// reorder window as fits in it.
//
//dpi:hotpath
func (e *Endpoint) BuildAck(ackBuf []byte, emit Emit) {
	span := e.cfg.Window - 1
	if span > 8*len(ackBuf) {
		span = 8 * len(ackBuf)
	}
	buf := ackBuf[:(span+7)/8]
	for i := range buf {
		buf[i] = 0
	}
	for i := 0; i < span; i++ {
		s := &e.recv[int(e.recvNext+1+uint32(i))%e.cfg.Window]
		if s.present && s.seq == e.recvNext+1+uint32(i) {
			buf[i/8] |= 1 << uint(i%8)
		}
	}
	e.ackNeeded = false
	e.stats.AcksSent++
	e.met.addAck()
	emit(Header{Type: TAck, Token: e.token, Ack: e.recvNext}, buf)
}
