package system

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"dpiservice/internal/ctlproto"
	"dpiservice/internal/middlebox"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/sdn"
	"dpiservice/internal/traffic"
)

// scrape fetches and decodes one /metrics snapshot over HTTP.
func scrape(t *testing.T, addr string) *obs.Snapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestObservabilityEndToEnd runs a full service chain with a live debug
// listener on the DPI instance's registry and scrapes it while traffic
// flows: counters must be monotone between scrapes, and after the
// system quiesces the scraped values must agree with the engine's own
// telemetry snapshot. Run under -race this also proves the scrape path
// (atomic reads under the registry lock) does not race with the scan
// hot path.
func TestObservabilityEndToEnd(t *testing.T) {
	tb, err := NewTestbed()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()

	idsLogic := middlebox.NewCountLogic()
	if _, err := tb.AddConsumerMbox("ids-1", "ids",
		ctlproto.Register{ReadOnly: true},
		[]string{"attack-sig", "/etc/passwd"}, idsLogic); err != nil {
		t.Fatal(err)
	}
	spec := sdn.ChainSpec{Src: "src", Dst: "dst", Elements: []string{"ids-1"}}
	tag, err := tb.TSA.InstallChainWithDPI(spec, "dpi-1")
	if err != nil {
		t.Fatal(err)
	}
	node, err := tb.AddDPIInstance("dpi-1", []uint16{tag}, false)
	if err != nil {
		t.Fatal(err)
	}

	reg := node.Engine().Metrics()
	srv, err := obs.StartDebugServer("127.0.0.1:0", obs.NewDebugMux(reg, obs.Health{Service: "dpi-node"}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var fb traffic.FrameBuilder
	payloads := [][]byte{
		[]byte("a perfectly clean payload with nothing of note"),
		[]byte("contains attack-sig right here"),
		[]byte("clean again and again and again"),
	}
	const total = 120
	send := func(from, to int) {
		for i := from; i < to; i++ {
			tuple := packet.FiveTuple{
				Src: tb.Src.IP, Dst: tb.Dst.IP,
				SrcPort: uint16(40000 + i%8), DstPort: 80,
				Protocol: packet.IPProtoTCP,
			}
			if !tb.Src.Send(fb.Build(tuple, payloads[i%len(payloads)])) {
				t.Fatal("send failed")
			}
		}
	}

	// First half, scrape, second half, scrape: counters are monotone.
	send(0, total/2)
	s1 := scrape(t, srv.Addr())
	send(total/2, total)
	s2 := scrape(t, srv.Addr())
	for _, name := range []string{"core.packets", "core.bytes", "dpinode.frames"} {
		v1, ok1 := s1.Counter(name)
		v2, ok2 := s2.Counter(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s missing from scrape (%v, %v)", name, ok1, ok2)
		}
		if v2 < v1 {
			t.Errorf("%s went backwards across scrapes: %d -> %d", name, v1, v2)
		}
	}

	// Quiesce: every data packet reaches dst.
	var dataAtDst int
	waitFor(t, fmt.Sprintf("%d data packets at dst", total), func() bool {
		for {
			select {
			case f := <-tb.Dst.Inbox():
				var s packet.Summary
				if packet.Summarize(f, &s) == nil && !s.IsReport {
					dataAtDst++
				}
			default:
				return dataAtDst == total
			}
		}
	})

	// The scraped view must agree with the engine's own telemetry.
	final := scrape(t, srv.Addr())
	snap := node.Engine().Snapshot()
	if got, _ := final.Counter("core.packets"); got != snap.Packets {
		t.Errorf("scraped core.packets = %d, engine telemetry says %d", got, snap.Packets)
	}
	if got, _ := final.Counter("core.packets"); got != total {
		t.Errorf("core.packets = %d, want %d", got, total)
	}
	if got, _ := final.Counter("core.bytes"); got != snap.Bytes {
		t.Errorf("scraped core.bytes = %d, engine telemetry says %d", got, snap.Bytes)
	}
	if got, _ := final.Counter("core.matches"); got != snap.Matches {
		t.Errorf("scraped core.matches = %d, engine telemetry says %d", got, snap.Matches)
	}
	if got, _ := final.Counter("core.matches"); got == 0 {
		t.Error("no matches counted despite attack-sig packets")
	}
	// Every inspected packet lands in the payload-size histogram.
	h, ok := final.Histogram("core.payload_bytes")
	if !ok {
		t.Fatal("core.payload_bytes histogram missing")
	}
	if h.Count != snap.Packets {
		t.Errorf("payload_bytes histogram count = %d, want %d packets", h.Count, snap.Packets)
	}
	var bucketSum uint64
	for _, b := range h.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != h.Count {
		t.Errorf("histogram buckets sum to %d, count is %d", bucketSum, h.Count)
	}
	// The node's timed scan feeds the scan-latency histogram.
	if h, ok := final.Histogram("core.scan_ns"); !ok || h.Count != snap.Packets {
		t.Errorf("core.scan_ns = %+v (present=%v), want one observation per packet", h, ok)
	}
	if frames, _ := final.Counter("dpinode.frames"); frames < total {
		t.Errorf("dpinode.frames = %d, want >= %d", frames, total)
	}

	// Health endpoint answers while the system is live.
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
}
