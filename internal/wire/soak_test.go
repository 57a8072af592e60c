package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dpiservice/internal/obs"
	"dpiservice/internal/trace"
)

// soakPayload is packet i's payload: its number, then filler whose
// length cycles through 0..1199 bytes.
func soakPayload(i int) []byte {
	return append([]byte(fmt.Sprintf("soak-%06d", i)), bytes.Repeat([]byte{'a' + byte(i%26)}, i*37%1200)...)
}

// soakReport is the artifact the CI soak job uploads: everything
// needed to audit a run after the fact.
type soakReport struct {
	Seed        uint64        `json:"seed"`
	Packets     int           `json:"packets"`
	Results     int           `json:"results"`
	LostResults int           `json:"lost_results"`
	DurationMS  int64         `json:"duration_ms"`
	Client      Stats         `json:"client_endpoint"`
	Proxy       ChaosStats    `json:"proxy"`
	ServerWire  *obs.Snapshot `json:"server_wire"`
}

// TestWireSoak drives sustained traffic through a loopback UDP path
// that actively drops, duplicates and reorders datagrams, and asserts
// the protocol's core promise: zero lost result frames, with a bounded
// retransmit bill. The fault schedule is seeded (WIRE_SOAK_SEED) so a
// failing run reproduces exactly; WIRE_SOAK_SECONDS stretches the run
// for the CI soak tier and WIRE_SOAK_REPORT writes the JSON artifact.
func TestWireSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	seed := uint64(1)
	if s := os.Getenv("WIRE_SOAK_SEED"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("WIRE_SOAK_SEED: %v", err)
		}
		seed = v
	}
	runFor := time.Duration(0) // packet-count mode by default
	// On loopback a datagram carries up to 16.5 KiB, so the proxy — whose
	// faults are per datagram — sees few of them: 2 000 of the 50-byte
	// packets this test used to send fit in 35. The payloads now run from
	// 11 to 1 210 bytes (about 26 frames to a full datagram, ten datagrams
	// to a window) and there are enough of them for ~1 500 datagrams to
	// cross the proxy, ~30 of each fault at 2 %.
	packets := 20000
	if s := os.Getenv("WIRE_SOAK_SECONDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("WIRE_SOAK_SECONDS: %v", err)
		}
		runFor = time.Duration(v) * time.Second
	}

	reg := obs.NewRegistry()
	st, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Always-on flight recorder on the server endpoint: a failing soak
	// run ships its recent retransmit/session events (written to
	// DPI_FLIGHT_DUMP_DIR when set, the CI artifact path).
	met := NewMetrics(reg)
	fl := trace.NewFlight("soak-server", trace.DefaultFlightCapacity)
	clk := trace.StartClock(0)
	t.Cleanup(clk.Stop)
	fl.SetClock(clk)
	met.SetFlight(fl)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		var b strings.Builder
		if err := fl.WriteJSON(&b); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		if dir := os.Getenv("DPI_FLIGHT_DUMP_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err == nil {
				path := filepath.Join(dir, "wire-soak-flight.json")
				if os.WriteFile(path, []byte(b.String()), 0o644) == nil {
					t.Logf("flight dump written to %s", path)
					return
				}
			}
		}
		t.Logf("== wire-soak flight ==\n%s", b.String())
	})
	srv := echoServer(t, st, met)

	proxy, err := NewChaosProxy(st.LocalAddr().AP.String(), ChaosConfig{
		Drop: 0.02, Dup: 0.02, Reorder: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	ct, err := DialUDP(proxy.ClientAddr())
	if err != nil {
		t.Fatal(err)
	}
	sink := newResultSink()
	c := NewConn(ct, IssueToken(testKey, 77), "soak", testCfg, nil)
	c.OnResult(sink.add)
	t.Cleanup(func() {
		c.Close()
		proxy.Close()
		srv.Close()
	})
	if err := c.Start(10 * time.Second); err != nil {
		t.Fatalf("handshake through proxy: %v", err)
	}

	start := time.Now()
	seqs := make(map[int]uint32)
	sent := 0
	for {
		if runFor > 0 {
			if time.Since(start) >= runFor {
				break
			}
		} else if sent >= packets {
			break
		}
		seq, err := c.SendData(1, testTuple, soakPayload(sent))
		if err != nil {
			t.Fatalf("SendData %d: %v", sent, err)
		}
		seqs[sent] = seq
		sent++
	}
	c.Flush()
	if err := c.WaitIdle(60 * time.Second); err != nil {
		t.Fatalf("WaitIdle: %v", err)
	}
	waitFor(t, 60*time.Second, "all soak results", func() bool { return sink.len() >= sent })
	elapsed := time.Since(start)

	lost := 0
	for i := 0; i < sent; i++ {
		got, ok := sink.get(seqs[i])
		if !ok {
			lost++
			continue
		}
		if want := "match:1:" + string(soakPayload(i)); got != want {
			t.Errorf("result %d corrupted: %q", i, got)
		}
	}
	cs := c.Stats()
	ps := proxy.Stats()

	if lost != 0 {
		t.Errorf("%d result frames lost", lost)
	}
	if ps.Dropped == 0 || ps.Reordered == 0 || ps.Duped == 0 {
		t.Errorf("chaos proxy never fired: %+v", ps)
	}
	// Bounded retransmits. Loss is per datagram and a datagram now carries
	// many frames — 26 of these on average, a few hundred small ones at
	// most — so one drop costs that many retransmissions, and a dropped
	// reply that held a window's only ack re-sends up to the window. At
	// 2 % per direction that is still ~2 % of frames for lost data plus
	// at most as much again for lost acks (measured: 1.7–2.9 % over seeds
	// 1–8); a factor-4 margin plus one window of slack stays robust to the
	// loss schedule while still catching retransmit storms.
	maxRetr := uint64(sent)/6 + 256
	if cs.Retransmits > maxRetr {
		t.Errorf("retransmits = %d, want <= %d for %d packets", cs.Retransmits, maxRetr, sent)
	}

	rep := soakReport{
		Seed:        seed,
		Packets:     sent,
		Results:     sink.len(),
		LostResults: lost,
		DurationMS:  elapsed.Milliseconds(),
		Client:      cs,
		Proxy:       ps,
		ServerWire:  reg.Snapshot(),
	}
	t.Logf("soak: %d packets in %v, %d retransmits, proxy %+v", sent, elapsed, cs.Retransmits, ps)
	if path := os.Getenv("WIRE_SOAK_REPORT"); path != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatalf("writing soak report: %v", err)
		}
	}
}
