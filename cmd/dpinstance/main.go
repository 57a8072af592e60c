// Command dpinstance runs one DPI service instance daemon: it fetches
// its configuration from the controller (Section 5.1), listens for
// framed packets on a data port, scans each exactly once, answers with
// match reports, and periodically exports telemetry for the MCA²
// stress monitor (Section 4.3.1).
//
// Usage:
//
//	dpinstance [-controller addr] [-data addr] [-listen addr] [-verdicts addr]
//	           [-id name] [-dedicated] [-lease interval] [-debug-addr addr]
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/obs"
	"dpiservice/internal/trace"
)

func main() {
	var (
		ctlAddr    = flag.String("controller", "127.0.0.1:9090", "DPI controller address")
		dataAddr   = flag.String("data", "127.0.0.1:9191", "framed-TCP data-plane listen address")
		wireAddr   = flag.String("listen", "", "batched-UDP wire data-plane listen address (empty disables)")
		verdicts   = flag.String("verdicts", "", "wire address of a middlebox verdict consumer; non-empty match reports are forwarded there (empty disables)")
		id         = flag.String("id", "dpi-1", "instance identifier")
		dedicated  = flag.Bool("dedicated", false, "run as an MCA2 dedicated instance (memory-lean automaton: 128 KiB of rows, failure links below)")
		telEvery   = flag.Duration("telemetry", 10*time.Second, "telemetry export interval (0 disables)")
		leaseEvery = flag.Duration("lease", 5*time.Second, "liveness lease renewal interval (0 disables leasing; keep well under the controller's lease TTL)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	// One registry for the whole process: the engine (also across
	// hot-swaps, so counters stay continuous), the wire protocol, and
	// the debug endpoints all share it.
	reg := obs.NewRegistry()
	ctlproto.EnableMetrics(reg)

	// Tracing and flight recording: the tracer holds spans of sampled
	// packets (the sender decides sampling and marks frames with
	// FlagTrace); the flight recorder is always on, fed by rare events
	// (evictions, retransmits, session deaths) across the subsystems.
	tracer := trace.NewTracer("dpi-"+*id, trace.DefaultSpanCapacity)
	fl := trace.NewFlight("dpi-"+*id, trace.DefaultFlightCapacity)
	clk := trace.StartClock(0)
	defer clk.Stop()
	fl.SetClock(clk)

	cl, err := controller.Dial(*ctlAddr)
	if err != nil {
		log.Fatalf("dpinstance: controller: %v", err)
	}
	init, err := helloCtx(cl, *id, *dedicated)
	if err != nil {
		log.Fatalf("dpinstance: hello: %v", err)
	}
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		log.Fatalf("dpinstance: init: %v", err)
	}
	cfg.Metrics = reg
	engine, err := core.NewEngine(cfg)
	if err != nil {
		log.Fatalf("dpinstance: engine: %v", err)
	}
	engine.SetFlight(fl)
	var eng atomic.Pointer[core.Engine]
	eng.Store(engine)
	version := init.Version
	log.Printf("dpinstance %s: config v%d — %d patterns, %d states, %.1f MB, %d chains",
		*id, version, engine.NumPatterns(), engine.NumStates(),
		float64(engine.MemoryBytes())/1e6, len(engine.Chains()))

	ln, err := net.Listen("tcp", *dataAddr)
	if err != nil {
		log.Fatalf("dpinstance: data listen: %v", err)
	}
	log.Printf("dpinstance %s: data plane on %s", *id, ln.Addr())

	var stopWire func()
	if *wireAddr != "" {
		stopWire, err = startWire(*wireAddr, *verdicts, *id, init, &eng, reg, tracer, fl)
		if err != nil {
			log.Fatalf("dpinstance: wire: %v", err)
		}
	}

	if *debugAddr != "" {
		mux := obs.NewDebugMux(reg, obs.Health{
			Service: "dpinstance",
			Healthy: func() bool { return eng.Load() != nil },
			Details: func() map[string]any {
				e := eng.Load()
				if e == nil {
					return nil
				}
				return map[string]any{
					"id":           *id,
					"active_flows": e.ActiveFlows(),
					"patterns":     e.NumPatterns(),
				}
			},
		})
		mux.Handle("/trace", tracer.Handler())
		mux.Handle("/flight", fl.Handler())
		dbg, err := obs.StartDebugServer(*debugAddr, mux)
		if err != nil {
			log.Fatalf("dpinstance: debug listen: %v", err)
		}
		defer dbg.Close()
		log.Printf("dpinstance %s: debug endpoints on http://%s", *id, dbg.Addr())
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	if *telEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			exportAndRefresh(cl, *id, *dedicated, reg, &eng, fl, &version, *telEvery, stop)
		}()
	}
	if *leaseEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			renewLeases(cl, *id, *dedicated, *leaseEvery, stop)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				serveData(conn, &eng)
			}()
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	close(stop)
	ln.Close()
	if stopWire != nil {
		stopWire()
	}
	cl.Close()
	wg.Wait()
	s := eng.Load().Snapshot()
	log.Printf("dpinstance %s: done — %d packets, %d bytes, %d matches",
		*id, s.Packets, s.Bytes, s.Matches)
}

// serveData handles one data connection: packet in, report out. The
// engine pointer is reloaded per packet so controller-pushed updates
// apply without dropping the connection.
func serveData(conn net.Conn, eng *atomic.Pointer[core.Engine]) {
	defer conn.Close()
	var payload, enc []byte
	for {
		tag, tuple, p, err := ctlproto.ReadDataPacket(conn, payload)
		if err != nil {
			logReadErr(err)
			return
		}
		payload = p
		rep, err := eng.Load().InspectTimed(tag, tuple, p)
		if err != nil {
			log.Printf("dpinstance: inspect: %v", err)
			if err := ctlproto.WriteResultFrame(conn, nil); err != nil {
				return
			}
			continue
		}
		enc = enc[:0]
		if rep != nil {
			enc = rep.AppendEncoded(enc)
		}
		if err := ctlproto.WriteResultFrame(conn, enc); err != nil {
			return
		}
	}
}

func logReadErr(err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) {
		log.Printf("dpinstance: data read: %v", err)
	}
}

// opTimeout bounds every control round-trip so a hung or partitioned
// controller never wedges a daemon loop.
const opTimeout = 5 * time.Second

// helloCtx runs one bounded InstanceHello.
func helloCtx(cl *controller.Client, id string, dedicated bool) (ctlproto.InstanceInit, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	return cl.InstanceHello(ctx, id, nil, dedicated)
}

// renewLeases keeps the instance's liveness lease fresh. A renewal
// rejected with "lease expired" means the controller already declared
// this instance dead and failed its chains over; the instance re-hellos
// to rejoin service rather than silently scanning for chains it no
// longer owns.
func renewLeases(cl *controller.Client, id string, dedicated bool, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, _, err := cl.RenewLease(ctx, id)
		cancel()
		switch {
		case err == nil:
		case controller.IsLeaseExpired(err):
			log.Printf("dpinstance %s: lease expired, re-helloing", id)
			if _, herr := helloCtx(cl, id, dedicated); herr != nil {
				log.Printf("dpinstance %s: re-hello: %v", id, herr)
			}
		default:
			log.Printf("dpinstance %s: lease renewal: %v", id, err)
		}
	}
}

// exportAndRefresh periodically ships counters and heavy flows, and
// hot-swaps the engine when the controller's configuration version
// advanced (the runtime pattern-update path). The version rides on a
// lease renewal, so a tick with nothing changed costs one small
// round-trip; the full configuration is fetched with a hello only when
// the version moved, or when the controller rejects the renewal (an
// expired lease, or a controller that no longer knows the instance),
// since the hello also re-admits the instance. A failed round is logged
// and retried on the next tick: a controller restart outlasts the
// client's retry budget, and giving up would leave the instance on a
// stale configuration and invisible to MCA² while its lease renewals
// keep it alive.
func exportAndRefresh(cl *controller.Client, id string, dedicated bool, reg *obs.Registry, eng *atomic.Pointer[core.Engine], fl *trace.Flight, version *uint64, every time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		_, current, err := cl.RenewLease(ctx, id)
		cancel()
		if err != nil && !controller.IsRejection(err) {
			log.Printf("dpinstance: refresh: %v", err)
			continue
		}
		if err != nil || current != *version {
			init, err := helloCtx(cl, id, dedicated)
			if err != nil {
				log.Printf("dpinstance: refresh: %v", err)
				continue
			}
			if init.Version != *version {
				applyConfig(init, id, reg, eng, fl, version)
			}
		}
		engine := eng.Load()
		s := engine.Snapshot()
		tel := ctlproto.Telemetry{
			InstanceID: id, Packets: s.Packets, Bytes: s.Bytes,
			BytesScanned: s.BytesScanned, Matches: s.Matches,
		}
		// The 16 densest flows at 1 % match density or more, selected
		// during the table walk: the export allocates per heavy flow,
		// not per tracked flow.
		for _, f := range engine.HeavyFlows(16, 0.01) {
			tel.HeavyFlows = append(tel.HeavyFlows, ctlproto.FlowTelemetry{
				Flow: ctlproto.FlowKey{
					Src: f.Tuple.Src.String(), Dst: f.Tuple.Dst.String(),
					SrcPort: f.Tuple.SrcPort, DstPort: f.Tuple.DstPort,
					Protocol: f.Tuple.Protocol,
				},
				Bytes: f.Bytes, Matches: f.Matches,
			})
		}
		ctx, cancel = context.WithTimeout(context.Background(), opTimeout)
		err = cl.SendTelemetry(ctx, tel)
		cancel()
		if err != nil {
			log.Printf("dpinstance: telemetry: %v", err)
		}
	}
}

// applyConfig builds an engine for a fetched configuration and swaps it
// in. The rebuilt engine keeps feeding the shared registry so
// scrape-side counters never reset across config updates.
func applyConfig(init ctlproto.InstanceInit, id string, reg *obs.Registry, eng *atomic.Pointer[core.Engine], fl *trace.Flight, version *uint64) {
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		log.Printf("dpinstance: bad update: %v", err)
		return
	}
	cfg.Metrics = reg
	fresh, err := core.NewEngine(cfg)
	if err != nil {
		log.Printf("dpinstance: rebuild: %v", err)
		return
	}
	fresh.SetFlight(fl)
	eng.Store(fresh)
	*version = init.Version
	log.Printf("dpinstance %s: applied config v%d (%d patterns)", id, *version, fresh.NumPatterns())
}
