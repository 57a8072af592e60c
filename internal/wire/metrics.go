package wire

import (
	"fmt"

	"dpiservice/internal/obs"
	"dpiservice/internal/trace"
)

// Metrics folds wire-transport counters into an obs registry. All add
// paths are nil-receiver safe so library code instruments
// unconditionally and only daemons that opt in pay the pointer
// indirection; obs counter updates themselves are lock- and
// allocation-free, safe on the hot send/recv path.
type Metrics struct {
	framesIn    *obs.Counter // frames decoded from the transport
	framesOut   *obs.Counter // frames handed to the transport
	batchesIn   *obs.Counter // ReadBatch calls that returned datagrams
	batchesOut  *obs.Counter // WriteBatch calls
	dgramsIn    *obs.Counter // datagrams those ReadBatch calls returned
	dgramsOut   *obs.Counter // datagrams handed to WriteBatch
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	retransmits *obs.Counter // reliable frames re-emitted
	acks        *obs.Counter // TAck frames built
	dups        *obs.Counter // duplicate reliable frames discarded
	overflow    *obs.Counter // reorder-window overflow drops
	badToken    *obs.Counter // frames rejected for an invalid session token
	badFrame    *obs.Counter // frames rejected by the codec
	emsgsize    *obs.Counter // WriteBatch calls the path refused a datagram of
	oversize    *obs.Counter // frames refused at Send: larger than the path's datagram
	fallbacks   *obs.Counter // sessions that gave up a budget above the default
	sessions    *obs.Gauge   // live sessions (server side)
	budget      *obs.Gauge   // smallest datagram budget in use
	rcvbuf      *obs.Gauge   // smallest socket receive buffer granted
	sndbuf      *obs.Gauge   // smallest socket send buffer granted

	// fl is the optional flight recorder: retransmissions and session
	// deaths land there so a post-mortem dump shows the wire's last
	// moments. Set once at daemon setup, before traffic.
	fl *trace.Flight
}

// NewMetrics registers the wire instruments in reg (nil returns nil,
// which disables counting).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		framesIn:    reg.Counter("wire.frames_in"),
		framesOut:   reg.Counter("wire.frames_out"),
		batchesIn:   reg.Counter("wire.batches_in"),
		batchesOut:  reg.Counter("wire.batches_out"),
		dgramsIn:    reg.Counter("wire.datagrams_in"),
		dgramsOut:   reg.Counter("wire.datagrams_out"),
		bytesIn:     reg.Counter("wire.bytes_in"),
		bytesOut:    reg.Counter("wire.bytes_out"),
		retransmits: reg.Counter("wire.retransmits"),
		acks:        reg.Counter("wire.acks_sent"),
		dups:        reg.Counter("wire.dup_frames"),
		overflow:    reg.Counter("wire.reorder_overflow_drops"),
		badToken:    reg.Counter("wire.bad_token_drops"),
		badFrame:    reg.Counter("wire.bad_frame_drops"),
		emsgsize:    reg.Counter("wire.emsgsize"),
		oversize:    reg.Counter("wire.oversize_frames"),
		fallbacks:   reg.Counter("wire.budget_fallbacks"),
		sessions:    reg.Gauge("wire.sessions"),
		budget:      reg.Gauge("wire.datagram_budget"),
		rcvbuf:      reg.Gauge("wire.rcvbuf_bytes"),
		sndbuf:      reg.Gauge("wire.sndbuf_bytes"),
	}
}

//dpi:hotpath
func (m *Metrics) addFramesIn(n, bytes uint64) {
	if m != nil {
		m.framesIn.Add(n)
		m.bytesIn.Add(bytes)
	}
}

//dpi:hotpath
func (m *Metrics) addFramesOut(n, bytes uint64) {
	if m != nil {
		m.framesOut.Add(n)
		m.bytesOut.Add(bytes)
	}
}

//dpi:hotpath
func (m *Metrics) addBatchIn(n uint64) {
	if m != nil && n > 0 {
		m.batchesIn.Inc()
		m.dgramsIn.Add(n)
	}
}

//dpi:hotpath
func (m *Metrics) addBatchOut(n uint64) {
	if m != nil {
		m.batchesOut.Inc()
		m.dgramsOut.Add(n)
	}
}

func (m *Metrics) addEmsgsize() {
	if m != nil {
		m.emsgsize.Inc()
	}
}

func (m *Metrics) addOversize() {
	if m != nil {
		m.oversize.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addRetransmit() {
	if m != nil {
		m.retransmits.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addAck() {
	if m != nil {
		m.acks.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addDup() {
	if m != nil {
		m.dups.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addOverflow() {
	if m != nil {
		m.overflow.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addBadToken() {
	if m != nil {
		m.badToken.Inc()
	}
}

//dpi:hotpath
func (m *Metrics) addBadFrame() {
	if m != nil {
		m.badFrame.Inc()
	}
}

func (m *Metrics) sessionDelta(d int64) {
	if m != nil {
		m.sessions.Add(d)
	}
}

// setBudget publishes the datagram budget in use: every stager reports
// a change as it happens, and a server restates the minimum over its
// live sessions on every tick, so the gauge settles on the smallest.
func (m *Metrics) setBudget(b int) {
	if m != nil {
		m.budget.Set(int64(b))
	}
}

// noteSocket publishes tr's granted socket buffers (the smallest, when
// several sockets share the registry) and returns a warning when the
// kernel granted less than was asked for: with a clamped buffer a burst
// of full datagrams is dropped before the reader sees it.
func (m *Metrics) noteSocket(tr Transport) (warning string) {
	ut, ok := tr.(*UDPTransport)
	if !ok {
		return ""
	}
	rcv, snd := ut.SocketBuffers()
	if rcv == 0 && snd == 0 {
		return ""
	}
	if m != nil {
		if cur := m.rcvbuf.Value(); cur == 0 || int64(rcv) < cur {
			m.rcvbuf.Set(int64(rcv))
		}
		if cur := m.sndbuf.Value(); cur == 0 || int64(snd) < cur {
			m.sndbuf.Set(int64(snd))
		}
	}
	if rcv < socketBufferBytes || snd < socketBufferBytes {
		return fmt.Sprintf("wire: socket %s granted rcvbuf %d / sndbuf %d of %d bytes requested (net.core.rmem_max/wmem_max clamp): bursts beyond that are dropped by the kernel",
			ut.LocalAddr(), rcv, snd, socketBufferBytes)
	}
	return ""
}

// budgetFallback counts a session giving up a budget above the default
// and leaves the two sizes in the flight recorder.
func (m *Metrics) budgetFallback(from, to int) {
	if m != nil {
		m.fallbacks.Inc()
		m.fl.Record(trace.EvBudgetFallback, uint64(from), uint64(to))
	}
}

// SetFlight attaches a flight recorder; wire-level rare events
// (retransmits, session deaths and expiries) are recorded into it.
// Call at setup time, before traffic flows.
func (m *Metrics) SetFlight(f *trace.Flight) {
	if m != nil {
		m.fl = f
	}
}

//dpi:hotpath
func (m *Metrics) flightRetransmit(seq uint32, retries int) {
	if m != nil {
		m.fl.Record(trace.EvRetransmit, uint64(seq), uint64(retries))
	}
}

//dpi:hotpath
func (m *Metrics) flightSessionDead(token uint64, retransmitLimit bool) {
	if m != nil {
		b := uint64(0)
		if retransmitLimit {
			b = 1
		}
		m.fl.Record(trace.EvSessionDead, token, b)
	}
}
