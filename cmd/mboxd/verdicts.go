package main

import (
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// serveVerdicts runs the middlebox's wire-transport verdict consumer
// until SIGINT/SIGTERM: DPI instances connect with controller-issued
// tokens (validated against the cluster key from RegisterAck) and push
// every non-empty match report for this middlebox's chains.
func serveVerdicts(id, listen, debugAddr string, key uint64) error {
	reg := obs.NewRegistry()
	met := wire.NewMetrics(reg)
	verdicts := reg.Counter("mbox.verdicts")
	verdictBytes := reg.Counter("mbox.verdict_bytes")
	matches := reg.Counter("mbox.matches")
	badReports := reg.Counter("mbox.bad_reports")

	// The consume span closes each sampled packet's trace: verdicts
	// whose frames carry FlagTrace record their handling time here,
	// stitched to the upstream spans by trace ID at scrape time.
	tracer := trace.NewTracer("mbox-"+id, trace.DefaultSpanCapacity)
	fl := trace.NewFlight("mbox-"+id, trace.DefaultFlightCapacity)
	clk := trace.StartClock(0)
	defer clk.Stop()
	fl.SetClock(clk)
	met.SetFlight(fl)

	tr, err := wire.ListenUDP(listen)
	if err != nil {
		return err
	}
	srv := wire.NewServer(tr, key, wire.Config{}, met)
	srv.SetLogf(log.Printf)
	// Handlers run on the server's single receive goroutine; the decode
	// scratch is reused across verdicts.
	var rep packet.Report
	srv.OnVerdict(func(s *wire.Session, tag uint16, tuple packet.FiveTuple, report []byte) {
		traceID, pktIdx, traced := s.Trace()
		var start int64
		if traced {
			start = time.Now().UnixNano()
		}
		verdicts.Inc()
		verdictBytes.Add(uint64(len(report)))
		if _, err := packet.DecodeReport(report, &rep); err != nil {
			badReports.Inc()
			return
		}
		matches.Add(uint64(len(rep.Sections)))
		if traced {
			tracer.Record(traceID, pktIdx, trace.StageConsume, start, time.Now().UnixNano()-start)
		}
	})
	srv.Start()
	defer srv.Close()
	rcv, snd := tr.SocketBuffers()
	log.Printf("mboxd %s: verdict consumer on %s (rcvbuf %d, sndbuf %d)", id, srv.LocalAddr().String(), rcv, snd)

	if debugAddr != "" {
		mux := obs.NewDebugMux(reg, obs.Health{
			Service: "mboxd",
			Details: func() map[string]any {
				return map[string]any{
					"id":       id,
					"verdicts": verdicts.Value(),
				}
			},
		})
		mux.Handle("/trace", tracer.Handler())
		mux.Handle("/flight", fl.Handler())
		dbg, err := obs.StartDebugServer(debugAddr, mux)
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Printf("mboxd %s: debug endpoints on http://%s", id, dbg.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("mboxd %s: done — %d verdicts, %d matches", id, verdicts.Value(), matches.Value())
	return nil
}
