// Package middlebox implements the data-plane nodes of the paper's
// architecture on top of the virtual network: the DPI service instance
// node (scans once, marks packets, emits result packets — Sections 4.2
// and 6.1), result-consuming middleboxes that buffer and pair data with
// results instead of scanning (the paper's sample virtual middlebox and
// Snort-plugin analogue), legacy middleboxes that run their own DPI (the
// baseline the paper compares against), and the rule-logic samples of
// Table 1 (IDS counting, IPS dropping, traffic shaping, L7 load
// balancing).
package middlebox

import (
	"strconv"
	"strings"
	"sync"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/netsim"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/reassembly"
)

// ResultOnlyBit is OR-ed into a chain tag to form the bypass tag used
// when every middlebox on the chain is read-only: the data packet takes
// the bypass tag straight to its destination while the result packet
// follows the chain (Section 4.2, dedicated-packet option; cf. Big
// Switch Big Tap). Chain tags must stay below it.
const ResultOnlyBit = packet.VLANResultOnlyBit

// The node's mu is the outermost lock of the data plane: it may be held
// across calls into the reassembler, the engine's flow table, the
// metrics registry and the simulated NIC — never the reverse.
//
//dpi:lockorder(middlebox.DPINode.mu < reassembly.Assembler.mu)
//dpi:lockorder(middlebox.DPINode.mu < core.flowShard.mu)
//dpi:lockorder(middlebox.DPINode.mu < netsim.Host.mu)
//dpi:lockorder(middlebox.DPINode.mu < obs.Registry.mu)

// DPINode is a DPI service instance attached to the network: it scans
// each tagged packet once with the merged engine and communicates the
// results downstream.
type DPINode struct {
	*netsim.Host
	engine *core.Engine
	// met caches the node's instruments in the engine's registry; it is
	// re-resolved on SwapEngine so node counters follow the active
	// engine's registry (guarded by mu, like engine).
	met *nodeMetrics
	ID  string

	mu         sync.Mutex
	resultOnly map[uint16]bool
	reassemble map[uint16]bool
	inline     map[uint16]bool
	asm        *reassembly.Assembler
	curTag     uint16 // tag of the segment being fed to the assembler
	// Packet normalization knobs for the reassembly path: TCP segments
	// with a present-but-wrong checksum are rejected (the end host
	// would discard them), and segments with a TTL below normMinTTL or
	// the IPv4 evil bit set are flagged suspicious to the assembler.
	normChecksum bool
	normMinTTL   uint8

	buf packet.SerializeBuffer
}

// nodeMetrics are the DPINode's instruments: frames seen/bypassed and
// reports emitted.
type nodeMetrics struct {
	frames      *obs.Counter
	untagged    *obs.Counter
	reportsSent *obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		frames:      reg.Counter("dpinode.frames"),
		untagged:    reg.Counter("dpinode.frames_untagged"),
		reportsSent: reg.Counter("dpinode.reports_sent"),
	}
}

// NewDPINode wraps a host and an engine into a service instance node
// and installs its frame handler.
func NewDPINode(id string, host *netsim.Host, engine *core.Engine) *DPINode {
	n := &DPINode{
		Host: host, engine: engine, ID: id,
		met:          newNodeMetrics(engine.Metrics()),
		resultOnly:   make(map[uint16]bool),
		reassemble:   make(map[uint16]bool),
		inline:       make(map[uint16]bool),
		normChecksum: true,
	}
	n.asm = reassembly.NewAssembler(reassembly.Config{Metrics: engine.Metrics()}, n.deliverStream)
	host.SetHandler(n.handleFrame)
	return n
}

// Engine returns the node's current engine (it may be replaced by
// SwapEngine at any time; callers must not cache it across updates).
func (n *DPINode) Engine() *core.Engine { return n.engineRef() }

func (n *DPINode) engineRef() *core.Engine {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.engine
}

// SwapEngine atomically replaces the node's engine — how an instance
// applies a controller-pushed pattern-set or chain update at runtime.
// Stateful flows restart their scan from the swap point; the paper's
// design makes this loss cheap (an instance holds only a DFA state and
// an offset per flow, Section 4.3).
func (n *DPINode) SwapEngine(e *core.Engine) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.engine = e
	n.met = newNodeMetrics(e.Metrics())
}

// metRef returns the node's current instruments (paired with the
// current engine's registry).
func (n *DPINode) metRef() *nodeMetrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.met
}

// SetReassembly enables TCP stream reassembly for a chain (the
// session-reconstruction service of the paper's future work,
// Section 7): segments are reordered before scanning, data packets are
// forwarded immediately, and stream-offset-keyed result packets follow
// the chain asynchronously. Implied read-only consumption: middleboxes
// receive the results standalone.
func (n *DPINode) SetReassembly(tag uint16, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reassemble[tag] = on
}

// SetReassemblyConfig replaces the node's assembler with one built
// from cfg — the hook for selecting an overlap policy, normalization
// strictness and resource bounds. Stream state restarts empty; call it
// at configuration time, not mid-flow. A nil cfg.Metrics defaults to
// the engine's registry so evasion counters surface at /metrics.
func (n *DPINode) SetReassemblyConfig(cfg reassembly.Config) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cfg.Metrics == nil {
		cfg.Metrics = n.engine.Metrics()
	}
	n.asm.Close()
	n.asm = reassembly.NewAssembler(cfg, n.deliverStream)
}

// SetNormalization configures packet-level normalization on the
// reassembly path. verifyChecksums rejects TCP segments carrying a
// present-but-wrong checksum; minTTL flags segments below it as
// suspicious (0 disables the TTL heuristic). The IPv4 reserved "evil"
// bit is always flagged suspicious.
func (n *DPINode) SetNormalization(minTTL uint8, verifyChecksums bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.normMinTTL = minTTL
	n.normChecksum = verifyChecksums
}

// SetResultOnly marks a chain as read-only-consumers-only: data packets
// are diverted directly to their destination under the bypass tag and
// only result packets traverse the middlebox chain.
func (n *DPINode) SetResultOnly(tag uint16, on bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.resultOnly[tag] = on
}

// handleFrame processes one frame: scan, mark, forward, report.
func (n *DPINode) handleFrame(frame []byte) {
	met := n.metRef()
	met.frames.Inc()
	var sum packet.Summary
	if packet.Summarize(frame, &sum) != nil || sum.IsReport || !sum.Tagged {
		// Not steerable DPI traffic; forward unchanged (the paper's
		// service is oblivious to traffic it was not asked to scan).
		met.untagged.Inc()
		n.Send(frame)
		return
	}
	tag := sum.VLANID
	n.mu.Lock()
	reasm := n.reassemble[tag] && sum.Tuple.Protocol == packet.IPProtoTCP
	minTTL, verify := n.normMinTTL, n.normChecksum
	n.mu.Unlock()
	if reasm {
		// Forward the data immediately; scanning happens on the
		// reassembled stream and reports follow asynchronously.
		fin := sum.TCPFlags&(packet.TCPFin|packet.TCPRst) != 0
		seq := sum.TCPSeq
		tuple := sum.Tuple
		payload := sum.Payload
		// Normalization verdicts travel with the segment: the end host
		// discards a bad-checksum segment, and short-TTL or evil-bit
		// segments are the classic "DPI sees it, host never does"
		// insertions — the assembler must not let them desynchronize
		// the scanned stream.
		var meta reassembly.SegmentMeta
		if verify {
			if valid, present := packet.TCPChecksumValid(frame); present && !valid {
				meta.BadChecksum = true
			}
		}
		if sum.IPEvil || (minTTL > 0 && sum.IPTTL < minTTL) {
			meta.Suspicious = true
		}
		n.Send(frame)
		n.mu.Lock()
		n.curTag = tag
		if sum.TCPFlags&packet.TCPSyn != 0 {
			n.asm.SYN(tuple, seq)
		}
		_ = n.asm.SegmentWithMeta(tuple, seq, payload, fin, meta)
		if fin {
			n.engine.EndFlow(tuple) // n.mu held
		}
		n.mu.Unlock()
		return
	}
	report, err := n.engineRef().InspectTimed(tag, sum.Tuple, sum.Payload)
	n.finishScan(frame, &sum, tag, report, err)
}

// finishScan completes one scanned frame: flow teardown, result-passing
// mode resolution, marking, forwarding and report emission.
func (n *DPINode) finishScan(frame []byte, sum *packet.Summary, tag uint16, report *packet.Report, err error) {
	if err != nil {
		// Unknown chain: forward; steering is the TSA's problem.
		n.Send(frame)
		return
	}
	if sum.TCPFlags&(packet.TCPFin|packet.TCPRst) != 0 {
		n.engineRef().EndFlow(sum.Tuple)
	}

	n.mu.Lock()
	resultOnly := n.resultOnly[tag]
	inline := n.inline[tag]
	n.mu.Unlock()

	if report == nil {
		// No matches: the packet is forwarded entirely unmodified
		// (Section 4.2) — under the bypass tag in result-only mode.
		if resultOnly {
			_ = packet.SetVLAN(frame, tag|ResultOnlyBit)
		}
		n.Send(frame)
		return
	}
	report.PacketID = uint32(sum.IPID)
	report.Flags |= packet.FlagHasTuple
	report.Tuple = sum.Tuple

	if inline {
		// Option 1 of Section 4.2: the results ride the packet itself
		// as a shim layer.
		if out := n.buildInlineFrame(tag, report, frame); out != nil {
			n.Send(out)
		}
		return
	}
	if resultOnly {
		_ = packet.SetVLAN(frame, tag|ResultOnlyBit)
		n.Send(frame)
		n.sendReport(tag, report)
		return
	}
	// Mark the data packet so downstream middleboxes expect a result
	// packet right behind it (Section 6.1).
	_ = packet.SetECNMark(frame)
	n.Send(frame)
	n.sendReport(tag, report)
}

// deliverStream receives reassembled in-order stream chunks and scans
// them; it runs with n.mu held (synchronously under asm.Segment).
func (n *DPINode) deliverStream(tuple packet.FiveTuple, offset int64, data []byte, skipped int64) {
	// n.mu is held throughout (we are under asm.Segment).
	if skipped > 0 {
		// A gap was skipped: the DFA state no longer corresponds to
		// the stream; reset rather than match across unknown bytes.
		n.engine.EndFlow(tuple)
	}
	report, err := n.engine.Inspect(n.curTag, tuple, data)
	if err != nil || report == nil {
		return
	}
	report.PacketID = uint32(offset)
	report.Flags |= packet.FlagHasTuple
	report.Tuple = tuple
	n.sendReportLocked(n.curTag, report)
}

// sendReport emits a dedicated result packet carrying the report, under
// the chain tag so it follows the same steering rules as the data.
func (n *DPINode) sendReport(tag uint16, report *packet.Report) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sendReportLocked(tag, report)
}

func (n *DPINode) sendReportLocked(tag uint16, report *packet.Report) {
	body := report.AppendEncoded(nil)
	err := packet.SerializeLayers(&n.buf,
		&packet.Ethernet{Src: n.MAC, EtherType: packet.EtherTypeVLAN},
		&packet.VLAN{ID: tag, EtherType: packet.EtherTypeReport},
		packet.Payload(body),
	)
	if err != nil {
		return
	}
	out := make([]byte, len(n.buf.Bytes()))
	copy(out, n.buf.Bytes())
	n.met.reportsSent.Inc()
	n.Send(out)
}

// Telemetry assembles the instance's periodic controller report,
// including its heaviest flows by match density (Section 4.3.1).
func (n *DPINode) Telemetry(topK int) ctlproto.Telemetry {
	s := n.engineRef().Snapshot()
	tel := ctlproto.Telemetry{
		InstanceID:   n.ID,
		Packets:      s.Packets,
		Bytes:        s.Bytes,
		BytesScanned: s.BytesScanned,
		Matches:      s.Matches,
	}
	for _, f := range n.engineRef().HeavyFlows(topK, 0) {
		tel.HeavyFlows = append(tel.HeavyFlows, ctlproto.FlowTelemetry{
			Flow:    FlowKeyOf(f.Tuple),
			Bytes:   f.Bytes,
			Matches: f.Matches,
		})
	}
	return tel
}

// FlowKeyOf converts a five-tuple to its wire representation.
func FlowKeyOf(t packet.FiveTuple) ctlproto.FlowKey {
	return ctlproto.FlowKey{
		Src: t.Src.String(), Dst: t.Dst.String(),
		SrcPort: t.SrcPort, DstPort: t.DstPort, Protocol: t.Protocol,
	}
}

// TupleOf converts a wire flow key back to a five-tuple; it reports
// false on a malformed address.
func TupleOf(k ctlproto.FlowKey) (packet.FiveTuple, bool) {
	src, ok1 := parseIP4(k.Src)
	dst, ok2 := parseIP4(k.Dst)
	if !ok1 || !ok2 {
		return packet.FiveTuple{}, false
	}
	return packet.FiveTuple{
		Src: src, Dst: dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Protocol: k.Protocol,
	}, true
}

func parseIP4(s string) (packet.IP4, bool) {
	var ip packet.IP4
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, false
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || p == "" || v < 0 || v > 255 {
			return ip, false
		}
		ip[i] = byte(v)
	}
	return ip, true
}
