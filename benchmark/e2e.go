package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// This file deploys the real daemons for one workload and runs the two
// run shapes against them: the untraced run that yields the end-to-end
// metrics, and the traced run's end-to-end half.

// measurement is one reported number with where it came from.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Slices holds the per-slice values Value is the median of.
	Slices []float64 `json:"slices,omitempty"`
	// Samples is the number of packets (or latency samples, or starts)
	// behind Value.
	Samples int64 `json:"samples,omitempty"`
}

// workloadResult is everything one run of one workload produced.
type workloadResult struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Seed      int64                  `json:"seed"`
	Digest    string                 `json:"digest"`
	PacedPPS  int                    `json:"paced_pps"`
	MatchPct  float64                `json:"match_pct"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Tally     tally                  `json:"tally"`
	Metrics   map[string]measurement `json:"metrics"`
	Spans     []span                 `json:"spans,omitempty"`
}

// setupStarts is how many times dpinstance is started per untraced run;
// setup_s is their median.
const setupStarts = 3

// e2eSlices is the number of closed-loop and of open-loop slices in an
// untraced run; each metric is the median of its slices.
const e2eSlices = 5

// deployment is the controller and the verdict consumer of one run, with
// every middlebox and chain of the workload registered.
type deployment struct {
	f         *fleet
	w         *workload
	ctlAddr   string
	mboxAddr  string
	mbox      *daemon
	cl        *controller.Client
	token     uint64
	registerS float64
	starts    int
	owed      int64 // non-empty reports seen by loadgens already closed
}

// deploy starts dpictl, registers the workload's middleboxes, patterns
// and chains over the control RPCs, and starts mboxd as the verdict
// consumer of the first middlebox.
func deploy(f *fleet, w *workload) (*deployment, error) {
	d := &deployment{f: f, w: w}
	var err error
	if d.ctlAddr, err = freeAddr("tcp"); err != nil {
		return nil, err
	}
	ctlDebug, err := freeAddr("tcp")
	if err != nil {
		return nil, err
	}
	ctl, err := f.start("dpictl", f.bin("dpictl"), false, "-listen", d.ctlAddr, "-debug-addr", ctlDebug)
	if err != nil {
		return nil, err
	}
	if err := ctl.waitHealthy(20 * time.Second); err != nil {
		return nil, err
	}
	if d.cl, err = controller.Dial(d.ctlAddr); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	t0 := time.Now()
	for _, m := range w.Mboxes {
		ack, err := d.cl.RegisterFull(ctx, m.registration())
		if err != nil {
			return nil, fmt.Errorf("register %s: %w", m.ID, err)
		}
		m.SetIdx = ack.Set
		if err := d.cl.AddPatterns(ctx, m.ID, m.patternDefs()); err != nil {
			return nil, fmt.Errorf("patterns of %s: %w", m.ID, err)
		}
	}
	defs, err := d.cl.ReportChains(ctx, w.chainMembers())
	if err != nil {
		return nil, fmt.Errorf("report chains: %w", err)
	}
	w.Tags = w.Tags[:0]
	for _, c := range defs {
		w.Tags = append(w.Tags, c.Tag)
	}
	d.registerS = time.Since(t0).Seconds()

	if d.token, err = d.cl.NewSession(ctx, "bench"); err != nil {
		return nil, fmt.Errorf("session token: %w", err)
	}

	// mboxd repeats the first middlebox's registration (identical body, so
	// the controller treats it as a retry) and stays up as the consumer of
	// every verdict the instance forwards.
	if d.mboxAddr, err = freeAddr("udp"); err != nil {
		return nil, err
	}
	mboxDebug, err := freeAddr("tcp")
	if err != nil {
		return nil, err
	}
	m0 := w.Mboxes[0]
	args := []string{"-controller", d.ctlAddr, "-id", m0.ID, "-type", m0.Type, "-readonly",
		"-listen", d.mboxAddr, "-debug-addr", mboxDebug}
	if m0.Stateful {
		args = append(args, "-stateful")
	}
	if d.mbox, err = f.start("mboxd", f.bin("mboxd"), false, args...); err != nil {
		return nil, err
	}
	if err := d.mbox.waitHealthy(20 * time.Second); err != nil {
		return nil, err
	}
	return d, nil
}

// startInstance starts a dpinstance, connects the load generator and
// sends the probe packet. setup is the time from exec to the probe's
// result: hello, config fetch, automaton compile, sockets, first scan.
func (d *deployment) startInstance(check func(int, []byte) bool) (inst *daemon, g *loadgen, setup float64, err error) {
	var addrs [3]string
	for i, network := range []string{"udp", "tcp", "tcp"} {
		if addrs[i], err = freeAddr(network); err != nil {
			return nil, nil, 0, err
		}
	}
	d.starts++
	inst, err = d.f.start(fmt.Sprintf("dpinstance-%d", d.starts), d.f.bin("dpinstance"), true,
		"-controller", d.ctlAddr, "-id", "dpi-1",
		"-listen", addrs[0], "-data", addrs[1], "-debug-addr", addrs[2],
		"-verdicts", d.mboxAddr)
	if err != nil {
		return nil, nil, 0, err
	}
	// The debug server is the last thing dpinstance brings up, so a
	// healthy answer means the wire socket is bound.
	if err := inst.waitHealthy(150 * time.Second); err != nil {
		return nil, nil, 0, err
	}
	tr, err := wire.DialUDP(addrs[0])
	if err != nil {
		return nil, nil, 0, err
	}
	conn := wire.NewConn(tr, d.token, "bench", wire.Config{}, nil)
	g = newLoadgen(conn, d.w, check)
	g.sampler = trace.NewSampler(1, d.token)
	if err := conn.Start(10 * time.Second); err != nil {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("wire handshake: %w", err)
	}
	if err := g.probe(10 * time.Second); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	return inst, g, time.Since(inst.started).Seconds(), nil
}

// retire closes a load generator and stops its instance, keeping count
// of the verdicts it caused.
func (d *deployment) retire(inst *daemon, g *loadgen) {
	d.owed += g.snapshot().nonEmpty
	g.conn.Close()
	inst.stop()
}

// settle waits for mboxd to have consumed every verdict the instance
// owed it and returns how many never arrived (bad reports included).
func (d *deployment) settle(g *loadgen) (undelivered int64, delivered float64, err error) {
	owed := d.owed + g.snapshot().nonEmpty
	deadline := time.Now().Add(resultTimeout)
	for {
		m, err := d.mbox.metrics()
		if err != nil {
			return 0, 0, err
		}
		got := int64(m["mbox.verdicts"]) - int64(m["mbox.bad_reports"])
		if got >= owed || time.Now().After(deadline) {
			if owed == 0 {
				return 0, 100, nil
			}
			if got > owed {
				got = owed
			}
			return owed - got, 100 * float64(got) / float64(owed), nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (d *deployment) close() {
	if d.cl != nil {
		d.cl.Close()
	}
}

// checker returns the load generator's judge: the first len(corpus)
// sends to a fresh instance are the verify pass and must match the
// oracle exactly; later sends repeat corpus packets.
func checker(o *oracle) func(int, []byte) bool {
	n := len(o.expect)
	return func(i int, report []byte) bool {
		if i < n {
			return o.checkExact(i, report)
		}
		return o.checkRepeat(i, report)
	}
}

// put records one metric of the contract; a name outside it is a bug.
func (r *workloadResult) put(spec []metricSpec, name string, v float64, slices []float64, samples int64) {
	m, ok := specByName(spec, name)
	if !ok {
		panic("unknown metric " + name)
	}
	r.Metrics[name] = measurement{Value: v, Unit: m.Unit, Slices: slices, Samples: samples}
}

// share returns the given share of a run's measuring time.
func share(seconds, part float64) time.Duration {
	return time.Duration(seconds * part * float64(time.Second))
}

// column extracts one field of every slice.
func column(sat []satSlice, field func(satSlice) float64) []float64 {
	out := make([]float64, len(sat))
	for i, s := range sat {
		out[i] = field(s)
	}
	return out
}

func goodputOf(s satSlice) float64   { return s.GoodputMbps }
func instCPUOf(s satSlice) float64   { return s.InstCPUNs }
func driverCPUOf(s satSlice) float64 { return s.DriverCPUNs }
func instUtilOf(s satSlice) float64  { return s.InstUtilPct }

// runUntraced is the end-to-end run: set-up (several starts), verify
// pass, closed-loop saturation, open-loop pacing. seconds is the total
// measuring time, split between the two loops.
func runUntraced(f *fleet, w *workload, seconds float64) (*workloadResult, error) {
	d, err := deploy(f, w)
	if err != nil {
		return nil, err
	}
	defer d.close()
	o, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{
		Name: w.Name, Why: w.Why, Seed: w.Seed, Digest: w.Digest, PacedPPS: w.PacedPPS,
		MatchPct: 100 * o.matchFraction(), Metrics: make(map[string]measurement),
	}
	put := func(name string, v float64, slices []float64, samples int64) {
		res.put(e2eMetrics, name, v, slices, samples)
	}

	var setups []float64
	var inst *daemon
	var g *loadgen
	for i := 0; i < setupStarts; i++ {
		if inst != nil {
			d.retire(inst, g)
		}
		var s float64
		if inst, g, s, err = d.startInstance(checker(o)); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	defer g.conn.Close()
	put("setup_s", median(setups), setups, int64(len(setups)))

	if err := g.sendAll(len(w.Corpus)); err != nil {
		return nil, fmt.Errorf("verify pass: %w", err)
	}

	// Closed-loop and open-loop slices alternate, so both sample the whole
	// run: a slow spell of the machine lands in a minority of each metric's
	// slices and the medians ignore it.
	var sat []satSlice
	var paced []pacedSlice
	for i := 0; i < e2eSlices; i++ {
		warm, warmPkts := time.Duration(0), 0
		if i == 0 {
			warm, warmPkts = share(seconds, 1.0/12), w.WarmPkts
		}
		s, err := g.saturate(warm, warmPkts, share(seconds, 0.11), inst.cpuNanos)
		if err != nil {
			return nil, fmt.Errorf("saturation: %w", err)
		}
		if err := g.drain(); err != nil {
			return nil, err
		}
		p, err := g.pace(w.PacedPPS, share(seconds, 0.07))
		if err != nil {
			return nil, fmt.Errorf("paced phase: %w", err)
		}
		sat, paced = append(sat, s), append(paced, p)
	}
	goodput, instCPU := column(sat, goodputOf), column(sat, instCPUOf)
	var p50 []float64
	var satPkts, samples, late int64
	for _, s := range sat {
		satPkts += s.Packets
	}
	for _, s := range paced {
		p50 = append(p50, s.P50Us)
		samples += int64(s.Samples)
		late += int64(s.Late)
	}
	put("goodput_mbps", median(goodput), goodput, satPkts)
	put("inst_cpu_ns_per_pkt", median(instCPU), instCPU, satPkts)
	put("rtt_p50_us", median(p50), p50, samples)

	rss, err := inst.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	put("inst_rss_mb", rss, nil, 1)

	undelivered, _, err := d.settle(g)
	if err != nil {
		return nil, err
	}
	a := g.snapshot()
	res.Tally = tally{Attempted: int64(g.sent), Missing: g.lost, Mismatched: a.mismatch, Undelivered: undelivered}
	res.Attempted, res.Failed = res.Tally.Attempted, res.Tally.failed()
	res.Correct = res.Failed == 0
	fmt.Printf("  saturation: %d packets; instance at %.0f%% of a core, generator %.0f ns/pkt; paced %d pkt/s: %.2f%% of sends >1 ms late\n",
		satPkts, median(column(sat, instUtilOf)), median(column(sat, driverCPUOf)), w.PacedPPS, 100*float64(late)/float64(samples))
	return res, nil
}

// runTracedE2E is the traced run's end-to-end half: one start, verify
// pass, saturation slices alternating untraced and traced (their
// difference is the tracing overhead), then the paced phase with every
// packet traced, with the daemons' /metrics and /trace scraped around
// it. It fills layer metrics into res and spans into log, and returns
// the instance's CPU per packet at untraced saturation for the ledger.
func runTracedE2E(f *fleet, w *workload, seconds float64, res *workloadResult, log *spanLog) (instCPUNs float64, err error) {
	d, err := deploy(f, w)
	if err != nil {
		return 0, err
	}
	defer d.close()
	o, err := newOracle(w)
	if err != nil {
		return 0, err
	}
	res.MatchPct = 100 * o.matchFraction()
	put := func(name string, v float64, slices []float64, samples int64) {
		res.put(layerMetrics, name, v, slices, samples)
	}
	put("controller.register_s", d.registerS, nil, 1)

	inst, g, _, err := d.startInstance(checker(o))
	if err != nil {
		return 0, err
	}
	defer g.conn.Close()
	if err := g.sendAll(len(w.Corpus)); err != nil {
		return 0, fmt.Errorf("verify pass: %w", err)
	}
	before, err := inst.metrics()
	if err != nil {
		return 0, err
	}

	var plain, traced []satSlice
	for i := 0; i < 6; i++ {
		warm, warmPkts := time.Duration(0), 0
		if i == 0 {
			warm, warmPkts = share(seconds, 1.0/12), w.WarmPkts
		}
		g.traced = i%2 == 1
		s, err := g.saturate(warm, warmPkts, share(seconds, 1.0/18), inst.cpuNanos)
		if err != nil {
			return 0, fmt.Errorf("saturation: %w", err)
		}
		if g.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	if err := g.drain(); err != nil {
		return 0, err
	}
	var satPkts int64
	for _, s := range plain {
		satPkts += s.Packets
	}
	gpPlain, gpTraced := column(plain, goodputOf), column(traced, goodputOf)
	put("trace.overhead_pct", 100*(median(gpPlain)-median(gpTraced))/median(gpPlain), append(gpPlain, gpTraced...), satPkts)
	put("driver.cpu_ns_per_pkt", median(column(plain, driverCPUOf)), column(plain, driverCPUOf), satPkts)
	put("inst.cpu_util_pct", median(column(plain, instUtilOf)), column(plain, instUtilOf), satPkts)

	g.traced = true
	g.spans = log
	paced, err := g.pace(w.PacedPPS, share(seconds, 3.0/12))
	if err != nil {
		return 0, fmt.Errorf("paced phase: %w", err)
	}
	put("driver.late_pct", 100*float64(paced.Late)/float64(paced.Samples), nil, int64(paced.Samples))
	put("driver.rtt_p99_us", paced.P99Us, nil, int64(paced.Samples))

	after, err := inst.metrics()
	if err != nil {
		return 0, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	pkts := int64(delta("core.packets"))
	put("wire.frames_per_batch_in", ratio(delta("wire.frames_in"), delta("wire.batches_in")), nil, pkts)
	put("wire.acks_per_pkt", ratio(delta("wire.acks_sent"), delta("core.packets")), nil, pkts)
	put("wire.retransmit_pct", 100*ratio(delta("wire.retransmits"), delta("wire.frames_out")), nil, pkts)
	put("wire.dup_pct", 100*ratio(delta("wire.dup_frames"), delta("wire.frames_in")), nil, pkts)

	undelivered, delivered, err := d.settle(g)
	if err != nil {
		return 0, err
	}
	put("middlebox.verdicts_delivered_pct", delivered, nil, d.owed+g.snapshot().nonEmpty)

	// The daemons' own spans: decode, reassembly (the engine's prepare),
	// scan and encode on dpinstance, consume on mboxd. Their rings keep
	// the most recent few thousand.
	rtt := make(map[int64]int)
	for i, s := range log.spans {
		if s.Name == "driver.rtt" {
			rtt[s.Pkt] = i
		}
	}
	byStage := make(map[string][]float64)
	for _, src := range []struct {
		d      *daemon
		prefix string
	}{{inst, "inst."}, {d.mbox, "mbox."}} {
		dump, err := src.d.traceDump()
		if err != nil {
			return 0, err
		}
		for _, t := range dump.Traces {
			for _, s := range t.Spans {
				byStage[src.prefix+s.Stage] = append(byStage[src.prefix+s.Stage], float64(s.DurNs))
				parent, ok := rtt[int64(s.Pkt)]
				if !ok {
					continue // a packet of the saturation slices
				}
				log.add(span{Name: src.prefix + s.Stage, StartNs: s.StartNs, EndNs: s.StartNs + s.DurNs, Parent: parent, Pkt: int64(s.Pkt)})
			}
		}
	}
	for _, st := range []string{"decode", "scan", "encode"} {
		vs := byStage["inst."+st]
		put("trace.inst_"+st+"_p50_ns", median(vs), nil, int64(len(vs)))
	}

	a := g.snapshot()
	res.Tally = tally{Attempted: int64(g.sent), Missing: g.lost, Mismatched: a.mismatch, Undelivered: undelivered}
	res.Attempted, res.Failed = res.Tally.Attempted, res.Tally.failed()
	res.Correct = res.Failed == 0
	put("driver.fail_pct", res.Tally.failPct(), nil, res.Attempted)
	return median(column(plain, instCPUOf)), nil
}

// nullKey is the cluster key of the bare-forwarding server; it guards
// nothing, both ends are this program.
const nullKey = 0x6e756c6c

// serveNull is the bare-forwarding server: a wire.Server whose OnData
// handler only answers with an empty result. It runs as a child process
// on the instance's CPU, in the instance's place, until told to stop.
func serveNull(addr string, stop <-chan os.Signal) error {
	tr, err := wire.ListenUDP(addr)
	if err != nil {
		return err
	}
	srv := wire.NewServer(tr, nullKey, wire.Config{}, nil)
	srv.OnData(func(s *wire.Session, seq uint32, _ uint16, _ packet.FiveTuple, _ []byte) {
		// A dead session shows up at the generator as missing results.
		_ = s.SendResult(seq, nil)
	})
	srv.Start()
	<-stop
	return srv.Close()
}

// runNullServer measures bare forwarding: the same load generator
// against serveNull. What it costs is what the wire transport costs
// with no inspection behind it.
func runNullServer(f *fleet, w *workload, seconds float64, res *workloadResult) error {
	addr, err := freeAddr("udp")
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child, err := f.start("null-server", self, true, "-null-server", addr)
	if err != nil {
		return err
	}
	defer child.stop()
	// The child binds its socket a moment after exec; a conn that dialed
	// too early is refused and poisoned, so dial again.
	var g *loadgen
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tr, err := wire.DialUDP(addr)
		if err != nil {
			return err
		}
		conn := wire.NewConn(tr, wire.IssueToken(nullKey, 1), "bench-null", wire.Config{}, nil)
		g = newLoadgen(conn, w, nil)
		if err = conn.Start(time.Second); err == nil {
			break
		}
		conn.Close()
		if time.Now().After(deadline) {
			return fmt.Errorf("null server handshake: %w", err)
		}
	}
	defer g.conn.Close()
	sat, err := g.saturate(share(seconds, 1.0/24), 0, share(seconds, 1.0/12), nil)
	if err != nil {
		return fmt.Errorf("null saturation: %w", err)
	}
	if err := g.drain(); err != nil {
		return err
	}
	paced, err := g.pace(w.PacedPPS, share(seconds, 1.0/12))
	if err != nil {
		return fmt.Errorf("null paced phase: %w", err)
	}
	res.put(layerMetrics, "wire.null_goodput_mbps", sat.GoodputMbps, nil, sat.Packets)
	res.put(layerMetrics, "wire.null_rtt_p50_us", paced.P50Us, nil, int64(paced.Samples))
	if g.lost > 0 {
		return fmt.Errorf("null server lost %d results", g.lost)
	}
	return nil
}
