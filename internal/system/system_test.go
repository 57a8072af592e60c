package system

import (
	"bytes"
	"testing"
	"time"

	"dpiservice/internal/ctlproto"
	"dpiservice/internal/mca2"
	"dpiservice/internal/middlebox"
	"dpiservice/internal/packet"
	"dpiservice/internal/sdn"
	"dpiservice/internal/traffic"
)

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestServiceChainEndToEnd is the Figure 1(b)/Figure 2(b) pipeline:
// src -> DPI service -> IDS -> AV -> dst, with the DPI instance
// scanning once for both middleboxes.
func TestServiceChainEndToEnd(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	avLogic := middlebox.NewCountLogic()
	ids, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{Stateful: true, ReadOnly: true},
		[]string{"attack-sig", "/etc/passwd"}, idsLogic)
	if err != nil {
		t.Fatal(err)
	}
	av, err := tb.AddConsumerMbox("av-1", "av", ctlproto.Register{},
		[]string{"malware-body", "attack-sig"}, avLogic)
	if err != nil {
		t.Fatal(err)
	}
	_ = ids
	_ = av

	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1", "av-1"}}
	// Define the DPI instance first so chain tags exist when rules are
	// laid. Order in this API: chain tags come from InstallChainWithDPI,
	// which defines the chain; instance config needs the chain... so
	// install the chain, then create the instance serving it.
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false); err != nil {
		t.Fatal(err)
	}

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{
		Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 40000, DstPort: 80,
		Protocol: packet.IPProtoTCP,
	}
	payloads := [][]byte{
		[]byte("a perfectly clean payload with nothing of note"),
		[]byte("contains attack-sig right here"),
		[]byte("cat /etc/passwd and also malware-body twice malware-body"),
		[]byte("clean again"),
	}
	for _, p := range payloads {
		if !tb.Src.Send(fb.Build(tuple, p)) {
			t.Fatal("send failed")
		}
	}

	// dst receives all 4 data packets (reports are consumed/popped
	// along the way; any report reaching dst is ignorable — count only
	// data frames).
	var dataAtDst [][]byte
	waitFor(t, "4 data packets at dst", func() bool {
		for {
			select {
			case f := <-tb.Dst.Inbox():
				var s packet.Summary
				if packet.Summarize(f, &s) == nil && !s.IsReport {
					dataAtDst = append(dataAtDst, f)
				}
			default:
				return len(dataAtDst) == 4
			}
		}
	})

	// Payload integrity: L7 content arrives unmodified.
	for i, f := range dataAtDst {
		var s packet.Summary
		if err := packet.Summarize(f, &s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.Payload, payloads[i]) {
			t.Errorf("packet %d payload mutated: %q", i, s.Payload)
		}
		if s.Tagged {
			t.Errorf("packet %d still tagged at dst", i)
		}
	}
	// Clean packets must be entirely unmarked.
	var s packet.Summary
	_ = packet.Summarize(dataAtDst[0], &s)
	if s.ECNMarked {
		t.Error("clean packet carries the match mark")
	}

	// IDS saw attack-sig (pkt 2) and /etc/passwd (pkt 3) = 2 rules.
	waitFor(t, "IDS count", func() bool { return idsLogic.Total() == 2 })
	// AV saw malware-body twice and attack-sig once = 3.
	waitFor(t, "AV count", func() bool { return avLogic.Total() == 3 })

	// The DPI instance scanned each packet exactly once.
	if ids.DataPackets.Load() != 4 || av.DataPackets.Load() != 4 {
		t.Errorf("middleboxes saw %d/%d data packets, want 4/4",
			ids.DataPackets.Load(), av.DataPackets.Load())
	}
}

// TestLegacyChainEquivalence runs the same traffic through the
// Figure 1(a) baseline (each middlebox scans for itself) and checks the
// middleboxes reach identical conclusions.
func TestLegacyChainEquivalence(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	if err := tb.RegisterLegacy("ids-1", "ids"); err != nil {
		t.Fatal(err)
	}
	if err := tb.RegisterLegacy("av-1", "av"); err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1", "av-1"}}
	tag, err := tb.TSA.InstallChainLegacy(spec)
	if err != nil {
		t.Fatal(err)
	}
	idsLogic := middlebox.NewCountLogic()
	avLogic := middlebox.NewCountLogic()
	if _, err := tb.AddLegacyMbox("ids-1", "ids", tag, []string{"attack-sig", "/etc/passwd"}, idsLogic); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddLegacyMbox("av-1", "av", tag, []string{"malware-body", "attack-sig"}, avLogic); err != nil {
		t.Fatal(err)
	}

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 40000, DstPort: 80, Protocol: packet.IPProtoTCP}
	tb.Src.Send(fb.Build(tuple, []byte("contains attack-sig right here")))
	tb.Src.Send(fb.Build(tuple, []byte("cat /etc/passwd and malware-body")))

	waitFor(t, "dst receives", func() bool { return tb.Dst.Received() == 2 })
	waitFor(t, "IDS legacy count", func() bool { return idsLogic.Total() == 2 })
	waitFor(t, "AV legacy count", func() bool { return avLogic.Total() == 2 })
}

// TestResultOnlyChain exercises the third result-passing option of
// Section 4.2: a read-only IDS receives only result packets while data
// goes straight to the destination.
func TestResultOnlyChain(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	ids, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{ReadOnly: true}, []string{"attack-sig"}, idsLogic)
	if err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallResultOnlyChain(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	dpi.SetResultOnly(tag, true)

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 40000, DstPort: 80, Protocol: packet.IPProtoTCP}
	tb.Src.Send(fb.Build(tuple, []byte("clean one")))
	tb.Src.Send(fb.Build(tuple, []byte("with attack-sig inside")))

	waitFor(t, "dst gets both data packets", func() bool { return tb.Dst.Received() == 2 })
	waitFor(t, "IDS result", func() bool { return idsLogic.Total() == 1 })
	if ids.DataPackets.Load() != 0 {
		t.Errorf("read-only IDS received %d data packets, want 0", ids.DataPackets.Load())
	}
	if ids.ResultPackets.Load() != 1 {
		t.Errorf("IDS received %d result packets, want 1", ids.ResultPackets.Load())
	}
}

// TestBalancedChainMultiplexing is the Figure 3(b) scenario: flows are
// multiplexed across two DPI service instances by the TSA's reactive
// per-flow rules.
func TestBalancedChainMultiplexing(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	counter := middlebox.NewCountLogic()
	if _, err := tb.AddConsumerMbox("ids-1", "ids", ctlproto.Register{}, []string{"needle-pattern"}, counter); err != nil {
		t.Fatal(err)
	}
	tb.Switch.SetController(tb.TSA)
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallBalancedChain(spec, []string{"dpi-1", "dpi-2"})
	if err != nil {
		t.Fatal(err)
	}
	dpi1, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	dpi2, err := tb.AddDPIInstance("dpi-2", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}

	gen := traffic.NewGenerator(traffic.Config{Seed: 1})
	flows := gen.Flows(8, 3)
	var fb traffic.FrameBuilder
	total := 0
	for _, fl := range flows {
		tuple := fl.Tuple
		tuple.Src, tuple.Dst = tb.Src.IP, tb.Dst.IP
		for _, p := range fl.Payloads {
			tb.Src.Send(fb.Build(tuple, p))
			total++
		}
	}
	waitFor(t, "all packets at dst", func() bool { return int(tb.Dst.Received()) >= total })

	s1 := dpi1.Engine().Snapshot()
	s2 := dpi2.Engine().Snapshot()
	if s1.Packets+s2.Packets != uint64(total) {
		t.Errorf("instances scanned %d+%d, want %d", s1.Packets, s2.Packets, total)
	}
	// Round-robin over 8 flows x 3 pkts: exactly half the flows each.
	if s1.Packets != 12 || s2.Packets != 12 {
		t.Errorf("flow split %d/%d, want 12/12", s1.Packets, s2.Packets)
	}
	// Flow affinity: all packets of a flow hit one instance.
	for _, fl := range flows {
		tuple := fl.Tuple
		tuple.Src, tuple.Dst = tb.Src.IP, tb.Dst.IP
		if _, ok := tb.TSA.InstanceOf(tuple); !ok {
			t.Errorf("flow %v not pinned", tuple)
		}
	}
}

// TestMCA2AttackMitigation drives the Figure 6 scenario: an attack flow
// is detected from instance telemetry and migrated to a dedicated
// instance running the compact automaton.
func TestMCA2AttackMitigation(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	pats := []string{"attack-sig", "evil-payload", "malware-body"}
	if _, err := tb.AddConsumerMbox("ids-1", "ids", ctlproto.Register{}, pats, middlebox.NewCountLogic()); err != nil {
		t.Fatal(err)
	}
	tb.Switch.SetController(tb.TSA)
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallBalancedChain(spec, []string{"dpi-1"})
	if err != nil {
		t.Fatal(err)
	}
	dpi1, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	dedicated, err := tb.AddDPIInstance("dpi-ded", []uint16{tag}, true)
	if err != nil {
		t.Fatal(err)
	}
	monitor := mca2.New(tb.DPICtl, mca2.Config{MinFlowBytes: 256, MatchDensity: 0.01})

	// A benign flow and an attack flow.
	benign := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 1000, DstPort: 80, Protocol: packet.IPProtoTCP}
	attack := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 6666, DstPort: 80, Protocol: packet.IPProtoTCP}
	atkGen := traffic.NewGenerator(traffic.Config{Seed: 2, Mix: traffic.AttackMix, InjectPatterns: pats})
	var fb traffic.FrameBuilder
	for i := 0; i < 10; i++ {
		tb.Src.Send(fb.Build(benign, []byte("just an ordinary web page body here")))
		tb.Src.Send(fb.Build(attack, atkGen.PayloadN(600)))
	}
	waitFor(t, "initial traffic scanned", func() bool {
		return dpi1.Engine().Snapshot().Packets >= 20
	})

	// Telemetry export and evaluation.
	if err := tb.DPICtl.ReportTelemetry(dpi1.Telemetry(4)); err != nil {
		t.Fatal(err)
	}
	decisions, err := monitor.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 {
		t.Fatalf("decisions = %+v, want the attack flow only", decisions)
	}
	flow, ok := middlebox.TupleOf(decisions[0].Flow)
	if !ok || flow != attack {
		t.Fatalf("decided flow = %v", flow)
	}
	if decisions[0].To != "dpi-ded" {
		t.Fatalf("target = %s", decisions[0].To)
	}

	// Execute the migration via the TSA and keep attacking.
	if err := tb.TSA.MigrateFlow(tag, spec, flow, "dpi-ded"); err != nil {
		t.Fatal(err)
	}
	before := dedicated.Engine().Snapshot().Packets
	for i := 0; i < 5; i++ {
		tb.Src.Send(fb.Build(attack, atkGen.PayloadN(600)))
	}
	waitFor(t, "attack packets on dedicated instance", func() bool {
		return dedicated.Engine().Snapshot().Packets >= before+5
	})
	// The regular instance no longer sees the attack flow.
	p1 := dpi1.Engine().Snapshot().Packets
	tb.Src.Send(fb.Build(attack, atkGen.PayloadN(600)))
	waitFor(t, "migrated packet delivered", func() bool {
		return dedicated.Engine().Snapshot().Packets >= before+6
	})
	if dpi1.Engine().Snapshot().Packets != p1 {
		t.Error("regular instance still receives the migrated flow")
	}
}

// TestInlineShimChain exercises the FIRST result-passing option of
// Section 4.2: results ride the data packet as an NSH-like shim; the
// last middlebox strips it and the destination receives the original
// packet.
func TestInlineShimChain(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	avLogic := middlebox.NewCountLogic()
	ids, err := tb.AddConsumerMbox("ids-1", "ids", ctlproto.Register{},
		[]string{"attack-sig"}, idsLogic)
	if err != nil {
		t.Fatal(err)
	}
	av, err := tb.AddConsumerMbox("av-1", "av", ctlproto.Register{},
		[]string{"malware-body"}, avLogic)
	if err != nil {
		t.Fatal(err)
	}
	_ = ids
	av.StripShim = true // last middlebox removes the layer

	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1", "av-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	dpi.SetInlineResults(tag, true)

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 40000, DstPort: 80, Protocol: packet.IPProtoTCP}
	payload := []byte("attack-sig plus malware-body in one packet")
	tb.Src.Send(fb.Build(tuple, payload))
	tb.Src.Send(fb.Build(tuple, []byte("clean packet")))

	// The destination receives exactly two plain data frames — no shim
	// layer, no separate result packets.
	var got [][]byte
	waitFor(t, "2 frames at dst", func() bool {
		for {
			select {
			case f := <-tb.Dst.Inbox():
				got = append(got, f)
			default:
				return len(got) == 2
			}
		}
	})
	for i, f := range got {
		var s packet.Summary
		if err := packet.Summarize(f, &s); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if s.IsReport || s.Tagged {
			t.Errorf("frame %d still carries shim/tag", i)
		}
	}
	var s packet.Summary
	_ = packet.Summarize(got[0], &s)
	if !bytes.Equal(s.Payload, payload) {
		t.Errorf("payload corrupted through shim round trip: %q", s.Payload)
	}
	waitFor(t, "IDS inline count", func() bool { return idsLogic.Total() == 1 })
	waitFor(t, "AV inline count", func() bool { return avLogic.Total() == 1 })
	// Exactly one frame per packet traversed the chain: no dedicated
	// result packets were emitted.
	if ids.ResultPackets.Load() != 1 {
		t.Errorf("IDS saw %d shim frames, want 1", ids.ResultPackets.Load())
	}
}

// TestRuntimePatternUpdate adds and removes patterns while traffic
// flows: after the controller update propagates (engine hot-swap), new
// patterns match and removed ones no longer do.
func TestRuntimePatternUpdate(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	counter := middlebox.NewCountLogic()
	if _, err := tb.AddConsumerMbox("ids-1", "ids", ctlproto.Register{},
		[]string{"old-threat"}, counter); err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	v0 := tb.DPICtl.Version()

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 1, DstPort: 80, Protocol: packet.IPProtoTCP}
	tb.Src.Send(fb.Build(tuple, []byte("old-threat and new-threat together")))
	waitFor(t, "old pattern matched", func() bool { return counter.Total() == 1 })

	// The middlebox updates its rule set: rule 0 retired, rule 1 added.
	if err := tb.DPICtl.RemovePatterns("ids-1", []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := tb.DPICtl.AddPatterns("ids-1",
		[]ctlproto.PatternDef{{RuleID: 1, Content: []byte("new-threat")}}); err != nil {
		t.Fatal(err)
	}
	if tb.DPICtl.Version() <= v0 {
		t.Fatal("controller version did not advance")
	}
	if err := tb.UpdateInstance(dpi, []uint16{tag}, false); err != nil {
		t.Fatal(err)
	}

	tb.Src.Send(fb.Build(tuple, []byte("old-threat and new-threat together")))
	waitFor(t, "new pattern matched post-update", func() bool {
		return counter.PerPattern()[1] == 1
	})
	if counter.PerPattern()[0] != 1 {
		t.Errorf("retired rule count = %d, want unchanged 1", counter.PerPattern()[0])
	}
}

// TestReassemblyThroughFabric sends a flow's TCP segments out of
// order; the instance's reassembly service (the paper's
// session-reconstruction extension) restores the stream before
// scanning, so a pattern spanning the reordered boundary is still
// caught and reported by stream offset.
func TestReassemblyThroughFabric(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	ids, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{Stateful: true, ReadOnly: true},
		[]string{"crosses-segments"}, idsLogic)
	if err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	dpi, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}
	dpi.SetReassembly(tag, true)

	// Stream "xxcrosses-segmentsyy" split at seq 9 and sent tail
	// first; the SYN pins the initial sequence number so the
	// assembler knows the head is still missing.
	stream := []byte("xxcrosses-segmentsyy")
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 7777, DstPort: 80, Protocol: packet.IPProtoTCP}
	var fb traffic.FrameBuilder
	tb.Src.Send(fb.BuildSyn(tuple, 999))
	tb.Src.Send(fb.BuildSeq(tuple, 1000+9, stream[9:], false))
	tb.Src.Send(fb.BuildSeq(tuple, 1000, stream[:9], false))

	waitFor(t, "reassembled match at IDS", func() bool { return idsLogic.Total() == 1 })
	// Data packets were forwarded without waiting for results.
	waitFor(t, "both data packets at dst", func() bool { return tb.Dst.Received() >= 2 })
	if got := ids.ResultPackets.Load(); got != 1 {
		t.Errorf("IDS result packets = %d, want 1", got)
	}
}

// TestStatefulAcrossPacketsThroughFabric checks that a pattern split
// across two packets of one flow is caught by the stateful service
// through the full network path.
func TestStatefulAcrossPacketsThroughFabric(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	if _, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{Stateful: true, ReadOnly: true},
		[]string{"split-across-packets"}, idsLogic); err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false); err != nil {
		t.Fatal(err)
	}

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 5555, DstPort: 80, Protocol: packet.IPProtoTCP}
	tb.Src.Send(fb.Build(tuple, []byte("xxx split-acr")))
	tb.Src.Send(fb.Build(tuple, []byte("oss-packets yyy")))
	waitFor(t, "stateful match", func() bool { return idsLogic.Total() == 1 })
}

// TestDPIInstanceArrivalOrderEndToEnd runs the Figure 1(b) chain — a
// stateful read-only IDS and an AV consuming one scan — with several
// patterns in one packet: forwarding must keep arrival order and each
// middlebox must count exactly its own matches.
func TestDPIInstanceArrivalOrderEndToEnd(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	avLogic := middlebox.NewCountLogic()
	if _, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{Stateful: true, ReadOnly: true},
		[]string{"attack-sig", "/etc/passwd"}, idsLogic); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddConsumerMbox("av-1", "av", ctlproto.Register{},
		[]string{"malware-body", "attack-sig"}, avLogic); err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1", "av-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false); err != nil {
		t.Fatal(err)
	}

	var fb traffic.FrameBuilder
	tuple := packet.FiveTuple{
		Src: tb.Src.IP, Dst: tb.Dst.IP, SrcPort: 41000, DstPort: 80,
		Protocol: packet.IPProtoTCP,
	}
	payloads := [][]byte{
		[]byte("a perfectly clean payload with nothing of note"),
		[]byte("contains attack-sig right here"),
		[]byte("cat /etc/passwd and also malware-body twice malware-body"),
		[]byte("clean again"),
	}
	for _, p := range payloads {
		if !tb.Src.Send(fb.Build(tuple, p)) {
			t.Fatal("send failed")
		}
	}

	var dataAtDst [][]byte
	waitFor(t, "4 data packets at dst", func() bool {
		for {
			select {
			case f := <-tb.Dst.Inbox():
				var s packet.Summary
				if packet.Summarize(f, &s) == nil && !s.IsReport {
					dataAtDst = append(dataAtDst, f)
				}
			default:
				return len(dataAtDst) == 4
			}
		}
	})
	// Forwarding preserved arrival order.
	for i, f := range dataAtDst {
		var s packet.Summary
		if err := packet.Summarize(f, &s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s.Payload, payloads[i]) {
			t.Errorf("packet %d out of order or mutated: %q", i, s.Payload)
		}
	}
	waitFor(t, "IDS count", func() bool { return idsLogic.Total() == 2 })
	waitFor(t, "AV count", func() bool { return avLogic.Total() == 3 })
}
