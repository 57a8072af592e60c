// Package pipeline is the DPI instance's data path between an ingress
// adapter and the scan engine: decode → batch scan → encode → reply. It
// holds the one implementation of the wire data plane's packet handler,
// used by cmd/dpinstance and the benchmark/ deployed-path run; the netsim
// DPINode and the reassembly stage are to move behind it next (ROADMAP
// item 4).
package pipeline

import (
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// Scanner scans every packet a wire.Server delivers exactly once and
// answers it with its encoded match report. It runs to completion per
// transport batch on the server's receive goroutine: the TData frames of
// one ReadBatch are collected, scanned together with
// Engine.InspectBatch(items, 1) — one run through the engine's streaming
// DFA lanes, stateless and stateful packets alike, each flow's packets in
// arrival order — and answered, and the server then acks and flushes
// each session once.
//
// Set the exported fields, then Attach; a Scanner serves one server.
type Scanner struct {
	// Engine returns the engine to scan with. It is called once per run
	// of collected packets, so a hot swap applies at run boundaries.
	Engine func() *core.Engine
	// Verdicts, when non-nil, is sent every non-empty report (the
	// middlebox verdict consumer). The verdicts of a run are pushed
	// (wire.Conn.Push) when it has been answered: they leave at once
	// when the conn is idle, and with the consumer's next ack when
	// earlier verdicts are in flight, never on the conn's tick.
	Verdicts *wire.Conn
	// Tracer receives the decode/reassembly/scan/encode spans of frames
	// the sender marked FlagTrace; nil records nothing.
	Tracer *trace.Tracer
	// Logf reports per-packet failures; nil discards them.
	Logf func(format string, args ...any)

	// The run being collected: items[i] came from from[i]. Payloads alias
	// the sessions' reorder-window slots (see wire.Server.OnData), which
	// bounds a run to wire.HoldFrames and to the current batch.
	items []core.BatchItem
	from  []origin
	// reps[i] is items[i]'s report storage (core.BatchItem.Buf): a report
	// is encoded and dropped before the slot is held again, so the
	// matched path reuses it instead of allocating.
	reps []packet.Report
	enc  []byte // report encode buffer, reused across packets
	// staged is set when a verdict was queued on Verdicts since the
	// last push.
	staged bool
}

// origin is where one collected packet's result goes.
type origin struct {
	sess *wire.Session
	seq  uint32
}

// Attach registers the scanner as srv's packet handler. Before
// srv.Start only.
func (p *Scanner) Attach(srv *wire.Server) {
	if p.Logf == nil {
		p.Logf = func(string, ...any) {}
	}
	p.items = make([]core.BatchItem, 0, wire.HoldFrames)
	p.from = make([]origin, 0, wire.HoldFrames)
	p.reps = make([]packet.Report, wire.HoldFrames)
	srv.OnData(p.onData)
	srv.OnBatchEnd(p.drain)
}

// onData takes one delivered packet. Untraced packets join the run,
// which is scanned when it is full or the batch ends. A traced packet
// is scanned on its own through the stage-timed path so its spans keep
// their meaning — after the run, so that its flow's earlier packets
// are scanned first.
func (p *Scanner) onData(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
	if traceID, pktIdx, ok := s.Trace(); ok {
		p.traced(s, seq, tag, tuple, payload, traceID, pktIdx)
		return
	}
	if p.hold(s, seq, tag, tuple, payload) == wire.HoldFrames {
		p.drain()
	}
}

// hold appends one packet to the run and returns the run's length.
//
//dpi:hotpath
func (p *Scanner) hold(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) int {
	p.items = append(p.items, core.BatchItem{Tag: tag, Tuple: tuple, Payload: payload, Buf: &p.reps[len(p.items)]})
	p.from = append(p.from, origin{sess: s, seq: seq})
	return len(p.items)
}

// drain scans the collected run and answers every packet of it. It is
// also the server's end-of-batch hook, so no payload is held across
// batches.
func (p *Scanner) drain() {
	if len(p.items) == 0 {
		return
	}
	p.Engine().InspectBatch(p.items, 1)
	for i := range p.items {
		it, o := &p.items[i], p.from[i]
		if it.Err != nil {
			p.Logf("dpi pipeline: inspect: %v", it.Err)
		}
		p.answer(o.sess, o.seq, it.Tag, it.Tuple, it.Report, 0, 0)
		*it, p.from[i] = core.BatchItem{}, origin{}
	}
	p.items, p.from = p.items[:0], p.from[:0]
	p.pushVerdicts()
}

// pushVerdicts pushes the verdicts staged since the last push.
func (p *Scanner) pushVerdicts() {
	if p.staged {
		p.staged = false
		p.Verdicts.Push()
	}
}

// traced scans one FlagTrace packet by itself, recording its spans: the
// decode span runs from the datagram batch read to this dispatch (frame
// parse, reorder, trace-ext strip, and the scans of frames ahead of it
// in the batch); the engine's prepare stage (flow admission and
// stopping conditions) is the wire pipeline's reassembly
// analogue; the rest is the DFA scan.
func (p *Scanner) traced(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte, traceID uint64, pktIdx uint32) {
	decNs := s.SinceRecv()
	now := time.Now().UnixNano()
	p.Tracer.Record(traceID, pktIdx, trace.StageDecode, now-decNs, decNs)
	if len(p.items) > 0 {
		p.drain()
		now = time.Now().UnixNano()
	}
	rep, prepNs, scanNs, err := p.Engine().InspectStaged(tag, tuple, payload)
	if err != nil {
		p.Logf("dpi pipeline: inspect: %v", err)
	}
	p.Tracer.Record(traceID, pktIdx, trace.StageReassembly, now, prepNs)
	p.Tracer.Record(traceID, pktIdx, trace.StageScan, now+prepNs, scanNs)
	encStart := time.Now().UnixNano()
	p.answer(s, seq, tag, tuple, rep, traceID, pktIdx)
	p.Tracer.Record(traceID, pktIdx, trace.StageEncode, encStart, time.Now().UnixNano()-encStart)
	p.pushVerdicts()
}

// answer replies to one scanned packet and reports what failed.
func (p *Scanner) answer(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, rep *packet.Report, traceID uint64, pktIdx uint32) {
	resErr, verdictErr := p.reply(s, seq, tag, tuple, rep, traceID, pktIdx)
	if resErr != nil {
		p.Logf("dpi pipeline: result: %v", resErr)
	}
	if verdictErr != nil {
		p.Logf("dpi pipeline: verdict: %v", verdictErr)
	}
}

// reply encodes one packet's report (nil encodes as the empty report),
// stages its result on the session it arrived on and, when it matched,
// forwards the verdict — carrying the trace context when traceID is
// set. The two send errors are returned for the caller to log.
//
//dpi:hotpath
func (p *Scanner) reply(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, rep *packet.Report, traceID uint64, pktIdx uint32) (resErr, verdictErr error) {
	p.enc = p.enc[:0]
	if rep != nil {
		p.enc = rep.AppendEncoded(p.enc)
	}
	resErr = s.SendResult(seq, p.enc)
	if len(p.enc) == 0 || p.Verdicts == nil {
		return resErr, nil
	}
	p.staged = true
	if traceID != 0 {
		return resErr, p.Verdicts.SendVerdictTraced(tag, tuple, traceID, pktIdx, p.enc)
	}
	return resErr, p.Verdicts.SendVerdict(tag, tuple, p.enc)
}
