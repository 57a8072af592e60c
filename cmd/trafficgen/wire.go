package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// wireToken resolves the session token for wire mode: an explicit
// -token wins; otherwise the controller issues one for -peer.
func wireToken(token uint64, ctlAddr, peer string) (uint64, error) {
	if token != 0 {
		return token, nil
	}
	if ctlAddr == "" {
		return 0, errors.New("wire mode needs -token or -controller")
	}
	cl, err := controller.Dial(ctlAddr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return cl.NewSession(ctx, peer)
}

// driveWire streams the corpus to a dpinstance over the batched-UDP
// wire transport and waits for every match report, printing throughput
// and protocol statistics. Unlike the framed-TCP path, results arrive
// keyed by the data frame's seq, so ordering is irrelevant.
//
// With traceRate > 0 every packet of 1-in-traceRate flows (picked by a
// deterministic tuple hash, so re-runs sample the same flows) is sent
// with in-band trace context and gets a send-stage span recorded
// locally; the sampled trace IDs are printed so an operator (or the
// e2e harness) can stitch them against the /trace dumps of dpinstance
// and mboxd.
func driveWire(target, peer string, token uint64, tag uint16, corpus [][]byte, nFlows, traceRate int) error {
	tr, err := wire.DialUDP(target)
	if err != nil {
		return err
	}
	conn := wire.NewConn(tr, token, peer, wire.Config{}, nil)

	var (
		results     atomic.Int64
		withMatches atomic.Int64
		reportBytes atomic.Int64
	)
	conn.OnResult(func(dataSeq uint32, report []byte) {
		results.Add(1)
		if len(report) > 0 {
			withMatches.Add(1)
			reportBytes.Add(int64(len(report)))
		}
	})
	if err := conn.Start(10 * time.Second); err != nil {
		return fmt.Errorf("wire handshake with %s: %w", target, err)
	}
	defer conn.Close()
	rcv, snd := tr.SocketBuffers()
	log.Printf("trafficgen: wire session with %s (datagram budget %d, rcvbuf %d, sndbuf %d)", target, conn.Budget(), rcv, snd)

	tuples := make([]packet.FiveTuple, nFlows)
	for i := range tuples {
		tuples[i] = packet.FiveTuple{
			Src:      packet.IP4{10, 0, byte(i >> 8), byte(i)},
			Dst:      packet.IP4{10, 0, 0, 2},
			SrcPort:  uint16(1024 + i),
			DstPort:  80,
			Protocol: packet.IPProtoTCP,
		}
	}

	// Sampling decides at flow granularity: either every packet of a
	// flow is traced or none is, so a stitched trace shows a coherent
	// packet sequence. The token seeds the hash so distinct sessions
	// sample distinct flow subsets.
	sampler := trace.NewSampler(traceRate, token)
	var tracer *trace.Tracer
	var pktIdx []uint32
	traceIDs := make(map[uint64]struct{})
	if sampler.Enabled() {
		tracer = trace.NewTracer(peer, trace.DefaultSpanCapacity)
		pktIdx = make([]uint32, nFlows)
	}

	var totalBytes int64
	var tracedPkts int
	start := time.Now()
	for i, p := range corpus {
		totalBytes += int64(len(p))
		tuple := tuples[i%nFlows]
		if sampler.Enabled() && sampler.Sampled(tuple) {
			id := sampler.TraceID(tuple)
			idx := pktIdx[i%nFlows]
			pktIdx[i%nFlows]++
			sendStart := time.Now().UnixNano()
			if _, err := conn.SendDataTraced(tag, tuple, id, idx, p); err != nil {
				return err
			}
			tracer.Record(id, idx, trace.StageSend, sendStart, time.Now().UnixNano()-sendStart)
			traceIDs[id] = struct{}{}
			tracedPkts++
			continue
		}
		if _, err := conn.SendData(tag, tuple, p); err != nil {
			return err
		}
	}
	conn.Flush()

	deadline := time.Now().Add(60 * time.Second)
	for results.Load() < int64(len(corpus)) {
		if err := conn.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: %d of %d results after 60s", results.Load(), len(corpus))
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	st := conn.Stats()
	mbps := float64(totalBytes) * 8 / 1e6 / elapsed.Seconds()
	log.Printf("trafficgen: wire — %d packets, %.1f MB in %v — %.0f Mbps",
		len(corpus), float64(totalBytes)/1e6, elapsed.Round(time.Millisecond), mbps)
	pct := float64(int64(len(corpus))-withMatches.Load()) / float64(len(corpus)) * 100
	log.Printf("trafficgen: %.1f%% of packets had no matches; mean non-empty report %.1f B",
		pct, mean(reportBytes.Load(), int(withMatches.Load())))
	log.Printf("trafficgen: wire protocol — %d sent, %d retransmits, %d dups seen, %d acks",
		st.Sent, st.Retransmits, st.Dups, st.AcksSent)
	if sampler.Enabled() {
		ids := make([]string, 0, len(traceIDs))
		for id := range traceIDs {
			ids = append(ids, trace.IDString(id))
		}
		sort.Strings(ids)
		log.Printf("trafficgen: traced %d packets across %d flows; trace ids: %s",
			tracedPkts, len(traceIDs), strings.Join(ids, " "))
	}
	return nil
}
