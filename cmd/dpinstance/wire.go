package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/obs"
	"dpiservice/internal/pipeline"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// startWire runs the batched-UDP wire data plane: a wire server whose
// packet handler is the shared pipeline.Scanner (every delivered packet
// scanned exactly once, a batch at a time, and answered with its
// encoded match report), plus an optional verdict-forwarding client
// that pushes non-empty reports to a middlebox verdict consumer. The
// cluster key and the instance's own session token both come from
// InstanceInit. Sampled packets (FlagTrace set by the sender) accrue
// decode/reassembly/scan/encode spans into tracer and propagate their
// trace context on the forwarded verdict; fl captures wire-level rare
// events. The returned func shuts the data plane down.
func startWire(listen, verdicts, id string, init ctlproto.InstanceInit, eng *atomic.Pointer[core.Engine], reg *obs.Registry, tracer *trace.Tracer, fl *trace.Flight) (func(), error) {
	met := wire.NewMetrics(reg)
	met.SetFlight(fl)
	tr, err := wire.ListenUDP(listen)
	if err != nil {
		return nil, err
	}
	srv := wire.NewServer(tr, init.WireKey, wire.Config{}, met)
	srv.SetLogf(log.Printf)

	var vc *wire.Conn
	if verdicts != "" {
		vtr, err := wire.DialUDP(verdicts)
		if err != nil {
			tr.Close()
			return nil, err
		}
		vc = wire.NewConn(vtr, init.WireToken, id, wire.Config{}, met)
		if err := vc.Start(10 * time.Second); err != nil {
			vc.Close()
			tr.Close()
			return nil, fmt.Errorf("verdict consumer %s: %w", verdicts, err)
		}
		log.Printf("dpinstance %s: forwarding verdicts to %s (datagram budget %d)", id, verdicts, vc.Budget())
	}

	(&pipeline.Scanner{Engine: eng.Load, Verdicts: vc, Tracer: tracer, Logf: log.Printf}).Attach(srv)
	srv.Start()
	rcv, snd := tr.SocketBuffers()
	log.Printf("dpinstance %s: wire data plane on %s (rcvbuf %d, sndbuf %d)", id, srv.LocalAddr().String(), rcv, snd)

	return func() {
		srv.Close()
		if vc != nil {
			vc.Flush()
			if err := vc.WaitIdle(2 * time.Second); err != nil {
				log.Printf("dpinstance: verdict drain: %v", err)
			}
			vc.Close()
		}
	}, nil
}
