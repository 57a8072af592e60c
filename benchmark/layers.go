package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/middlebox"
	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/reassembly"
	"dpiservice/internal/regexengine"
	"dpiservice/internal/traffic"
	"dpiservice/internal/wire"
)

// This file is the layer replay: each module's exported functions called
// in deployment order on the workload's own packets, single goroutine,
// timed from outside. Every timed pass is a span; nothing inside the
// modules is instrumented.

// span is one timed interval. Timestamps are Unix nanoseconds. Parent is
// the index of the enclosing span in the same file, -1 for a root; a
// layer's self time is its span minus its children. Pkt is the send
// number of the packet the span belongs to, -1 for a whole-corpus pass.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Pkt     int64  `json:"pkt"`
}

// spanLog keeps spans in memory until the run ends. It is used by one
// goroutine at a time: the replay, then the load generator's receiver
// during the traced paced phase, then the main goroutine again.
type spanLog struct {
	spans []span
}

// maxSpans bounds the span file: the replay's passes, rttSpans packets
// and the daemons' spans for them fit several times over.
const maxSpans = 32768

func (l *spanLog) add(s span) int {
	if len(l.spans) >= maxSpans {
		return -1
	}
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// replayRuns is how often each timed pass is repeated; the median is
// reported.
const replayRuns = 3

// replay carries the replay's shared inputs and its outputs.
type replay struct {
	w     *workload
	res   *workloadResult
	log   *spanLog
	root  int
	items []core.BatchItem // the replayed send sequence
	bytes int64            // payload bytes in items
}

func (r *replay) put(name string, v float64, samples int64) {
	r.res.put(layerMetrics, name, v, nil, samples)
}

// once times one call of fn, records it as a span and returns its
// duration in nanoseconds.
func (r *replay) once(name string, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	r.log.add(span{Name: name, StartNs: start.UnixNano(), EndNs: end.UnixNano(), Parent: r.root, Pkt: -1})
	return float64(end.Sub(start))
}

// timed runs fn replayRuns times (setup, untimed, before each) and
// returns the median duration in nanoseconds.
func (r *replay) timed(name string, setup, fn func()) float64 {
	var ds []float64
	for i := 0; i < replayRuns; i++ {
		if setup != nil {
			setup()
		}
		ds = append(ds, r.once(name, fn))
	}
	return median(ds)
}

// ledgerParts are the replayed costs on the deployed path, ns per packet.
type ledgerParts struct {
	codec, endpoint, syscall, inspect, encode float64
}

// replayLayers fills res with every replay metric and returns the
// ledger's inputs.
func replayLayers(w *workload, res *workloadResult, log *spanLog) (ledgerParts, error) {
	var parts ledgerParts
	r := &replay{w: w, res: res, log: log}
	begin := time.Now()
	r.root = log.add(span{Name: "replay", StartNs: begin.UnixNano(), Parent: -1, Pkt: -1})

	// Controller: register exactly what deploy registers, then render the
	// instance's configuration the way the hello RPC does.
	ctl := controller.New()
	for _, m := range w.Mboxes {
		idx, err := ctl.Register(m.registration())
		if err != nil {
			return parts, err
		}
		m.SetIdx = idx
		if err := ctl.AddPatterns(m.ID, m.patternDefs()); err != nil {
			return parts, err
		}
	}
	w.Tags = w.Tags[:0]
	for _, ids := range w.chainMembers() {
		tag, err := ctl.DefineChain(ids)
		if err != nil {
			return parts, err
		}
		w.Tags = append(w.Tags, tag)
	}
	var cfg core.Config
	var cfgErr error
	ns := r.timed("controller.config", nil, func() {
		var init ctlproto.InstanceInit
		if init, cfgErr = ctl.InstanceInitMsg("dpi-1", nil, false); cfgErr == nil {
			cfg, cfgErr = controller.ConfigFromInit(init)
		}
	})
	if cfgErr != nil {
		return parts, cfgErr
	}
	r.put("controller.config_s", ns/1e9, replayRuns)

	// Core: the engine dpinstance builds.
	start := time.Now()
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return parts, err
	}
	compile := time.Since(start)
	log.add(span{Name: "core.compile", StartNs: start.UnixNano(), EndNs: start.Add(compile).UnixNano(), Parent: r.root, Pkt: -1})
	r.put("core.compile_s", compile.Seconds(), 1)
	r.put("mpm.automaton_mb", float64(eng.MemoryBytes())/(1<<20), 1)

	// The replayed sequence: three corpus cycles, or half the flow draw
	// sequence when the workload has one (so the flow table overflows
	// here as it does in the deployment).
	n := 3 * len(w.Corpus)
	if len(w.FlowSeq)/2 > n {
		n = len(w.FlowSeq) / 2
	}
	r.items = make([]core.BatchItem, n)
	for i := range r.items {
		chain, tuple, payload := w.at(i)
		r.items[i] = core.BatchItem{Tag: w.Tags[chain], Tuple: tuple, Payload: payload}
		r.bytes += int64(len(payload))
	}
	nf := float64(n)

	// One untimed corpus pass collects the reports the later layers
	// encode, decode and consume.
	reports := make([]*packet.Report, len(w.Corpus))
	for i := range reports {
		it := &r.items[i]
		if reports[i], err = eng.Inspect(it.Tag, it.Tuple, it.Payload); err != nil {
			return parts, err
		}
	}

	reg := eng.Metrics()
	hits0, miss0, evict0 := reg.Counter("core.flow_hits").Value(), reg.Counter("core.flow_misses").Value(), reg.Counter("core.flows_evicted").Value()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	inspect := func() {
		for i := range r.items {
			it := &r.items[i]
			it.Report, it.Err = eng.Inspect(it.Tag, it.Tuple, it.Payload)
		}
	}
	inspect()
	runtime.ReadMemStats(&ms1)
	hits, miss := reg.Counter("core.flow_hits").Value()-hits0, reg.Counter("core.flow_misses").Value()-miss0
	r.put("core.inspect_allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/nf, int64(n))
	r.put("core.flow_miss_pct", 100*float64(miss)/float64(hits+miss), int64(n))
	r.put("core.flows_evicted", float64(reg.Counter("core.flows_evicted").Value()-evict0), int64(n))

	// Inspect and InspectTimed alternate so drift hits both alike.
	var plain, clocked []float64
	for i := 0; i < replayRuns; i++ {
		plain = append(plain, r.once("core.inspect", inspect)/nf)
		clocked = append(clocked, r.once("core.inspect_timed", func() {
			for i := range r.items {
				it := &r.items[i]
				it.Report, it.Err = eng.InspectTimed(it.Tag, it.Tuple, it.Payload)
			}
		})/nf)
	}
	parts.inspect = median(plain)
	r.put("core.inspect_ns_per_pkt", parts.inspect, int64(n))
	r.put("obs.timed_overhead_ns_per_pkt", median(clocked)-median(plain), int64(n))

	workers := runtime.GOMAXPROCS(0)
	r.put("core.batch_ns_per_pkt", r.timed("core.batch", nil, func() {
		for lo := 0; lo < n; lo += 256 {
			eng.InspectBatch(r.items[lo:min(lo+256, n)], workers)
		}
	})/nf, int64(n))
	jobs := make([]core.Job, 64)
	r.put("core.pool_ns_per_pkt", r.timed("core.pool", nil, func() {
		pool := core.NewPool(func() *core.Engine { return eng }, workers, 0)
		for i := range r.items {
			j := &jobs[i%len(jobs)]
			if i >= len(jobs) {
				j.Wait()
			}
			*j = core.Job{Tag: r.items[i].Tag, Tuple: r.items[i].Tuple, Payload: r.items[i].Payload}
			pool.Submit(j)
		}
		pool.Close()
	})/nf, int64(n))

	// mpm: the bare automata over the same payloads, every set active.
	b := mpm.NewBuilder()
	for _, m := range w.Mboxes {
		for _, p := range m.Set.Patterns {
			if err := b.Add(m.SetIdx, p.ID, p.Content); err != nil {
				return parts, err
			}
		}
	}
	pf, err := b.BuildPrefiltered()
	if err != nil {
		return parts, err
	}
	ac := pf.Underlying()
	noEmit := func([]mpm.PatternRef, int) {}
	acNs := r.timed("mpm.acfull", nil, func() {
		for i := range r.items {
			ac.Scan(r.items[i].Payload, ac.Start(), mpm.AllSets, noEmit)
		}
	})
	r.put("mpm.acfull_ns_per_byte", acNs/float64(r.bytes), r.bytes)
	r.put("core.inspect_overhead_ns_per_pkt", parts.inspect-acNs/nf, int64(n))
	var st mpm.PrefilterStats
	pfNs := r.timed("mpm.prefilter", func() { st = mpm.PrefilterStats{} }, func() {
		for i := range r.items {
			pf.ScanStats(r.items[i].Payload, pf.Start(), mpm.AllSets, noEmit, &st)
		}
	})
	r.put("mpm.prefilter_ns_per_byte", pfNs/float64(r.bytes), r.bytes)
	pct := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	r.put("mpm.prefilter_hit_pct", pct(st.Hits, st.Probes), int64(st.Probes))
	r.put("mpm.prefilter_confirm_pct", pct(st.ConfirmedBytes, uint64(r.bytes)), r.bytes)
	r.put("mpm.prefilter_bailouts", float64(st.Bailouts), int64(n))

	// packet: reports, then headers.
	nc := float64(len(w.Corpus))
	var enc []byte
	var encoded [][]byte
	for _, rep := range reports {
		if rep == nil {
			encoded = append(encoded, nil)
			continue
		}
		encoded = append(encoded, rep.AppendEncoded(nil))
	}
	parts.encode = r.timed("packet.report_encode", nil, func() {
		for _, rep := range reports {
			if rep != nil {
				enc = rep.AppendEncoded(enc[:0])
			}
		}
	}) / nc
	r.put("packet.report_encode_ns_per_pkt", parts.encode, int64(len(reports)))
	var dec packet.Report
	var decErr error
	var nonEmpty, repBytes int64
	for _, e := range encoded {
		if len(e) > 0 {
			nonEmpty++
			repBytes += int64(len(e))
		}
	}
	r.put("packet.report_bytes_per_pkt", float64(repBytes)/nc, nonEmpty)
	r.put("packet.report_decode_ns_per_pkt", r.timed("packet.report_decode", nil, func() {
		for _, e := range encoded {
			if len(e) > 0 {
				if _, err := packet.DecodeReport(e, &dec); err != nil {
					decErr = err
				}
			}
		}
	})/nc, nonEmpty)
	logic := middlebox.NewCountLogic()
	consume := r.timed("middlebox.consume", nil, func() {
		for i, e := range encoded {
			if len(e) == 0 {
				continue
			}
			if _, err := packet.DecodeReport(e, &dec); err != nil {
				decErr = err
				continue
			}
			for _, sec := range dec.Sections {
				logic.OnResult(w.Corpus[i].Tuple, sec.Entries, nil)
			}
		}
	})
	if decErr != nil {
		return parts, fmt.Errorf("layer replay: report decode: %w", decErr)
	}
	if nonEmpty > 0 {
		consume /= float64(nonEmpty)
	}
	r.put("middlebox.consume_ns_per_report", consume, nonEmpty)

	fb := &traffic.FrameBuilder{}
	frames := make([][]byte, len(w.Corpus))
	seqs := make(map[packet.FiveTuple]uint32)
	for i := range frames {
		it := &r.items[i]
		frames[i] = fb.BuildSeq(it.Tuple, seqs[it.Tuple], it.Payload, false)
		seqs[it.Tuple] += uint32(len(it.Payload))
		if err := packet.SetTCPChecksum(frames[i]); err != nil {
			return parts, err
		}
	}
	var sum packet.Summary
	var sumErr error
	r.put("packet.summarize_ns_per_pkt", r.timed("packet.summarize", nil, func() {
		for _, f := range frames {
			if err := packet.Summarize(f, &sum); err != nil {
				sumErr = err
			}
		}
	})/nc, int64(len(frames)))
	if sumErr != nil {
		return parts, fmt.Errorf("layer replay: summarize: %w", sumErr)
	}
	bad := 0
	r.put("packet.checksum_ns_per_pkt", r.timed("packet.checksum", nil, func() {
		for _, f := range frames {
			if valid, _ := packet.TCPChecksumValid(f); !valid {
				bad++
			}
		}
	})/nc, int64(len(frames)))
	if bad > 0 {
		return parts, fmt.Errorf("layer replay: %d generated frames fail their TCP checksum", bad)
	}

	if err := r.replayRegex(); err != nil {
		return parts, err
	}
	if err := r.replayReassembly(); err != nil {
		return parts, err
	}
	if err := r.replayWire(encoded, &parts); err != nil {
		return parts, err
	}
	log.spans[r.root].EndNs = time.Now().UnixNano()
	return parts, nil
}

// replayRegex times the confirmation stage: every packet that holds all
// anchors of an expression is confirmed against it.
func (r *replay) replayRegex() error {
	type call struct {
		rx      *regexengine.Engine
		id      int
		payload []byte
	}
	var calls []call
	for c, members := range r.w.Chains {
		for _, mi := range members {
			m := r.w.Mboxes[mi]
			if len(m.Set.Regexes) == 0 {
				continue
			}
			rx := regexengine.New(0)
			for _, re := range m.Set.Regexes {
				comp, err := rx.Add(re.ID, re.Expr)
				if err != nil {
					return err
				}
				for i := range r.w.Corpus {
					p := &r.w.Corpus[i]
					if p.Chain != c {
						continue
					}
					all := len(comp.Anchors) > 0
					for _, a := range comp.Anchors {
						if !bytes.Contains(p.Payload, []byte(a)) {
							all = false
							break
						}
					}
					if all {
						calls = append(calls, call{rx, re.ID, p.Payload})
					}
				}
			}
		}
	}
	if len(calls) == 0 {
		r.put("regexengine.confirm_ns_per_call", 0, 0)
		r.put("regexengine.confirm_hit_pct", 0, 0)
		return nil
	}
	hits := 0
	ns := r.timed("regexengine.confirm", func() { hits = 0 }, func() {
		for _, c := range calls {
			if c.rx.Confirm(c.id, c.payload) {
				hits++
			}
		}
	})
	r.put("regexengine.confirm_ns_per_call", ns/float64(len(calls)), int64(len(calls)))
	r.put("regexengine.confirm_hit_pct", 100*float64(hits)/float64(len(calls)), int64(len(calls)))
	return nil
}

// replayReassembly feeds the sequence to a reassembler as TCP segments,
// in order and with a quarter of the segments swapped with the next
// segment of their flow.
func (r *replay) replayReassembly() error {
	n := min(len(r.items), 1<<16)
	type seg struct {
		tuple packet.FiveTuple
		seq   uint32
		data  []byte
	}
	inOrder := make([]seg, n)
	next := make(map[packet.FiveTuple]uint32)
	last := make(map[packet.FiveTuple]int)
	follower := make([]int, n) // index of the flow's next segment, -1 when none
	for i := range inOrder {
		it := &r.items[i]
		inOrder[i] = seg{it.Tuple, next[it.Tuple], it.Payload}
		next[it.Tuple] += uint32(len(it.Payload))
		follower[i] = -1
		if j, ok := last[it.Tuple]; ok {
			follower[j] = i
		}
		last[it.Tuple] = i
	}
	reordered := append([]seg(nil), inOrder...)
	rng := rand.New(rand.NewSource(r.w.Seed*8 + 3))
	moved := make([]bool, n)
	for i := range reordered {
		if j := follower[i]; j >= 0 && !moved[i] && !moved[j] && rng.Intn(4) == 0 {
			reordered[i], reordered[j] = reordered[j], reordered[i]
			moved[i], moved[j] = true, true
		}
	}
	var asm *reassembly.Assembler
	var buffered *obs.Gauge
	fresh := func() {
		reg := obs.NewRegistry()
		asm = reassembly.NewAssembler(reassembly.Config{Metrics: reg}, func(packet.FiveTuple, int64, []byte, int64) {})
		buffered = reg.Gauge("reassembly.buffered_bytes")
	}
	var rejected int
	var peak int64
	feed := func(segs []seg) func() {
		return func() {
			for i := range segs {
				s := &segs[i]
				if err := asm.SegmentWithMeta(s.tuple, s.seq, s.data, false, reassembly.SegmentMeta{}); err != nil {
					rejected++
				}
				if v := buffered.Value(); v > peak {
					peak = v
				}
			}
		}
	}
	r.put("reassembly.segment_ns_per_pkt", r.timed("reassembly.segment", fresh, feed(inOrder))/float64(n), int64(n))
	peak = 0
	r.put("reassembly.ooo_segment_ns_per_pkt", r.timed("reassembly.ooo_segment", fresh, feed(reordered))/float64(n), int64(n))
	r.put("reassembly.buffered_peak_bytes", float64(peak), int64(n))
	if rejected > 0 {
		return fmt.Errorf("layer replay: reassembler rejected %d clean segments", rejected)
	}
	return nil
}

// replayWire times the wire transport's three parts as the instance
// pays for them: the frame codec, the reliability endpoint under a
// virtual clock, and the batch syscalls over loopback.
func (r *replay) replayWire(encoded [][]byte, parts *ledgerParts) error {
	n := min(len(r.items), 1<<16)
	nf := float64(n)
	const token = 0x1234
	var scratch, dg []byte
	var codecErr error
	parts.codec = r.timed("wire.codec", nil, func() {
		for i := 0; i < n; i++ {
			it := &r.items[i]
			scratch = wire.AppendData(scratch[:0], it.Tag, it.Tuple, it.Payload)
			dg = wire.AppendFrame(dg[:0], wire.Header{Type: wire.TData, Token: token, Seq: uint32(i)}, scratch)
			_, payload, _, err := wire.NextFrame(dg)
			if err == nil {
				_, _, _, err = wire.ParseDataHdr(payload)
			}
			if err != nil {
				codecErr = err
			}
		}
	}) / nf
	if codecErr != nil {
		return fmt.Errorf("layer replay: wire codec: %w", codecErr)
	}
	r.put("wire.codec_ns_per_pkt", parts.codec, int64(n))

	// Per corpus packet: the data frame payload the instance receives and
	// the result frame payload it sends back.
	nc := len(r.w.Corpus)
	dataPl := make([][]byte, nc)
	resultPl := make([][]byte, nc)
	for i := 0; i < nc; i++ {
		it := &r.items[i]
		dataPl[i] = wire.AppendData(nil, it.Tag, it.Tuple, it.Payload)
		resultPl[i] = append(make([]byte, wire.ResultHdrLen), encoded[i]...)
	}

	// Endpoint, instance side: receive a data frame, send its result,
	// and every 16 packets build an ack and take the peer's ack.
	var ep *wire.Endpoint
	ackBuf := make([]byte, wire.SackBytes(256))
	emit := func(wire.Header, []byte) {}
	var sendErr error
	var now int64 // virtual clock, 1 us per packet
	var k int     // corpus index of the packet in hand
	answer := func(wire.Type, uint32, uint8, []byte) {
		if _, err := ep.Send(wire.TResult, resultPl[k], now, emit); err != nil {
			sendErr = err
		}
	}
	parts.endpoint = r.timed("wire.endpoint", func() { ep, now = wire.NewEndpoint(token, wire.Config{}, nil), 0 }, func() {
		for i := 0; i < n; i++ {
			now += 1000
			k = i % nc
			ep.HandleFrame(wire.Header{Type: wire.TData, Token: token, Seq: firstSeq + uint32(i)}, dataPl[k], now, answer, emit)
			if i%16 == 15 {
				if ep.AckDue() {
					ep.BuildAck(ackBuf, emit)
				}
				ep.HandleAck(firstSeq+uint32(i)+1, nil, now, emit)
			}
		}
	}) / nf
	if sendErr != nil {
		return fmt.Errorf("layer replay: endpoint send: %w", sendErr)
	}
	r.put("wire.endpoint_ns_per_pkt", parts.endpoint, int64(n))

	// Syscalls, instance side, in the pattern wire.Server uses: one
	// ReadBatch drains what has arrived, then every datagram handled is
	// answered with its own WriteBatch of one datagram (its result frames
	// plus an ack frame). Frames coalesce into datagrams up to the
	// stager's 1400-byte budget, so small packets share syscalls. The
	// generator's half of the echo is not timed.
	srv, err := wire.ListenUDP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cl, err := wire.DialUDP(srv.LocalAddr().AP.String())
	if err != nil {
		return err
	}
	defer cl.Close()
	const batch = wire.DefaultBatch
	const budget = 1400
	out := make([]wire.Datagram, batch)
	back := make([]wire.Datagram, batch)
	in := make([]wire.Datagram, batch)
	for i := range in {
		out[i].Buf = make([]byte, 0, wire.MaxDatagram)
		back[i].Buf = make([]byte, 0, wire.MaxDatagram)
		in[i].Buf = make([]byte, 0, wire.MaxDatagram)
	}
	readAll := func(tr *wire.UDPTransport, want int) error {
		for got := 0; got < want; {
			k, err := tr.ReadBatch(in)
			if err != nil {
				return err
			}
			got += k
		}
		return nil
	}
	var ioErr error
	var ds []float64
	for run := 0; run < replayRuns && ioErr == nil; run++ {
		var spent time.Duration
		begin := time.Now()
		for i := 0; i < n && ioErr == nil; {
			// Fill up to a batch of datagrams, and the answer to each.
			m := 0
			for ; m < batch && i < n; m++ {
				out[m].Buf, back[m].Buf = out[m].Buf[:0], back[m].Buf[:0]
				for i < n {
					k := i % nc
					if len(out[m].Buf) > 0 && len(out[m].Buf)+wire.HeaderLen+len(dataPl[k]) > budget {
						break
					}
					seq := firstSeq + uint32(i)
					out[m].Buf = wire.AppendFrame(out[m].Buf, wire.Header{Type: wire.TData, Token: token, Seq: seq}, dataPl[k])
					back[m].Buf = wire.AppendFrame(back[m].Buf, wire.Header{Type: wire.TResult, Token: token, Seq: seq}, resultPl[k])
					i++
				}
				back[m].Buf = wire.AppendFrame(back[m].Buf, wire.Header{Type: wire.TAck, Token: token, Ack: firstSeq + uint32(i)}, ackBuf)
			}
			if _, err := cl.WriteBatch(out[:m]); err != nil {
				ioErr = err
				break
			}
			t0 := time.Now()
			ioErr = readAll(srv, m)
			for j := 0; j < m && ioErr == nil; j++ {
				back[j].Addr = in[0].Addr
				_, ioErr = srv.WriteBatch(back[j : j+1])
			}
			spent += time.Since(t0)
			if ioErr == nil {
				ioErr = readAll(cl, m)
			}
		}
		r.log.add(span{Name: "wire.syscall", StartNs: begin.UnixNano(), EndNs: begin.Add(spent).UnixNano(), Parent: r.root, Pkt: -1})
		ds = append(ds, float64(spent))
	}
	if ioErr != nil {
		return fmt.Errorf("layer replay: loopback echo: %w", ioErr)
	}
	parts.syscall = median(ds) / nf
	r.put("wire.syscall_ns_per_pkt", parts.syscall, int64(n))
	return nil
}
