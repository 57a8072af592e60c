package bench

import (
	"fmt"
	"strings"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/netsim"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/pipeline"
	"dpiservice/internal/wire"
)

// WireRow is one transport measurement of the `wire` experiment: the
// full data-plane round trip (frame, send, scan, result back) over one
// Transport implementation.
type WireRow struct {
	Transport   string
	Packets     int
	Bytes       int64
	Mbps        float64
	Retransmits uint64
	Batched     bool // kernel sendmmsg/recvmmsg path in use
}

// Wire measures end-to-end wire-transport throughput: a client conn
// streams the corpus to a wire server running a real scan engine, and
// the row completes when every match report has come back. It runs the
// same workload over loopback UDP (the deployment path) and over a
// clean netsim link (the test fabric), demonstrating that the protocol
// is transport-portable. Display-only: wall-clock round-trip numbers
// are scheduling-sensitive, so this experiment is not part of the
// committed benchmark baseline.
func Wire(o Options) ([]WireRow, error) {
	o.defaults()
	nPat := 2000
	if o.Quick {
		nPat = 200
	}
	set := patterns.SnortLike(nPat, o.Seed)
	corpus := corpusFor(o, set)
	eng, tag, err := engineFor(core.AutoFull, set)
	if err != nil {
		return nil, err
	}

	key := wire.NewClusterKey()
	var rows []WireRow

	// Loopback UDP.
	str, err := wire.ListenUDP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := newWireEchoServer(str, key, eng)
	ctr, err := wire.DialUDP(str.LocalAddr().AP.String())
	if err != nil {
		srv.Close()
		return nil, err
	}
	row, err := driveWireOnce("udp-loopback", ctr, key, tag, corpus)
	if err == nil {
		row.Batched = str.Batched()
		rows = append(rows, row)
	}
	srv.Close()
	if err != nil {
		return nil, err
	}

	// Netsim (clean link, same protocol).
	nw := netsim.NewNetwork()
	ct := wire.NewNetsimTransport("client")
	st := wire.NewNetsimTransport("server")
	if err := nw.AddNode(ct); err != nil {
		return nil, err
	}
	if err := nw.AddNode(st); err != nil {
		return nil, err
	}
	if err := nw.Connect(ct, st, netsim.LinkOpts{}); err != nil {
		return nil, err
	}
	srv2 := newWireEchoServer(st, key, eng)
	row, err = driveWireOnce("netsim", ct, key, tag, corpus)
	srv2.Close()
	nw.Stop()
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// newWireEchoServer wires a scan engine behind a wire server with the
// instance's own packet handler: every delivered packet is inspected
// and answered with its encoded report.
func newWireEchoServer(tr wire.Transport, key uint64, eng *core.Engine) *wire.Server {
	srv := wire.NewServer(tr, key, wire.Config{}, nil)
	(&pipeline.Scanner{Engine: func() *core.Engine { return eng }}).Attach(srv)
	srv.Start()
	return srv
}

// driveWireOnce streams the corpus through one client conn and waits
// for every result.
func driveWireOnce(name string, tr wire.Transport, key uint64, tag uint16, corpus [][]byte) (WireRow, error) {
	conn := wire.NewConn(tr, wire.IssueToken(key, 1), "dpibench", wire.Config{}, nil)
	results := make(chan struct{}, 1)
	var got int
	conn.OnResult(func(dataSeq uint32, report []byte) {
		got++ // receive goroutine only; read after the channel signal
		if got == len(corpus) {
			results <- struct{}{}
		}
	})
	if err := conn.Start(5 * time.Second); err != nil {
		conn.Close()
		return WireRow{}, fmt.Errorf("%s handshake: %w", name, err)
	}
	defer conn.Close()

	tuple := packet.FiveTuple{
		Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2},
		SrcPort: 40000, DstPort: 80, Protocol: packet.IPProtoTCP,
	}
	var bytes int64
	start := time.Now()
	for _, p := range corpus {
		bytes += int64(len(p))
		if _, err := conn.SendData(tag, tuple, p); err != nil {
			return WireRow{}, fmt.Errorf("%s send: %w", name, err)
		}
	}
	conn.Flush()
	select {
	case <-results:
	case <-time.After(60 * time.Second):
		return WireRow{}, fmt.Errorf("%s: results timed out", name)
	}
	elapsed := time.Since(start)
	st := conn.Stats()
	return WireRow{
		Transport:   name,
		Packets:     len(corpus),
		Bytes:       bytes,
		Mbps:        float64(bytes) * 8 / 1e6 / elapsed.Seconds(),
		Retransmits: st.Retransmits,
	}, nil
}

// FormatWire renders the wire experiment rows.
func FormatWire(rows []WireRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s %12s %12s %8s\n",
		"transport", "packets", "MB", "Mbps", "retransmits", "batched")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %10d %12.1f %12.0f %12d %8v\n",
			r.Transport, r.Packets, float64(r.Bytes)/1e6, r.Mbps, r.Retransmits, r.Batched)
	}
	return b.String()
}
