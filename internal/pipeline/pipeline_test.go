package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/israce"
	"dpiservice/internal/netsim"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

const (
	testKey = uint64(0xfeedfacecafebeef)
	// statefulTag's chain has a stateful member (its flows are checked
	// out to one scan at a time, in stream order); statelessTag's chain
	// has none.
	statefulTag  = 1
	statelessTag = 2
)

var (
	// connCfg drives the Conn-based tests: a Conn flushes a partly filled
	// stager only on its tick (RTOBase/4), so a short timeout keeps a
	// sender that has filled its window from idling.
	connCfg = wire.Config{RTOBase: 10 * time.Millisecond, RTOMax: 100 * time.Millisecond, JitterSeed: 7}
	// quietCfg drives the hand-built batches: no timer fires within a
	// test, so the acks and writes counted are the batch's own.
	quietCfg = wire.Config{RTOBase: time.Second, JitterSeed: 7}
)

func testEngine(t *testing.T, idsPatterns ...string) *core.Engine {
	t.Helper()
	if len(idsPatterns) == 0 {
		idsPatterns = []string{"attack-sig", "/etc/passwd", "evil"}
	}
	e, err := core.NewEngine(core.Config{
		Profiles: []core.Profile{
			{ID: 0, Name: "ids", Stateful: true, ReadOnly: true, Patterns: patterns.FromStrings("ids", idsPatterns)},
			{ID: 1, Name: "av", Patterns: patterns.FromStrings("av", []string{"malware-body", "evil"})},
		},
		Chains: map[uint16][]int{statefulTag: {0, 1}, statelessTag: {1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func flow(i int) packet.FiveTuple {
	return packet.FiveTuple{
		Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{198, 51, 100, 7},
		SrcPort: uint16(40000 + i), DstPort: 80, Protocol: packet.IPProtoTCP,
	}
}

// pkt is one corpus packet.
type pkt struct {
	tag     uint16
	tuple   packet.FiveTuple
	payload []byte
	traced  bool
}

// corpus draws n packets over four flows: filler text with the test
// patterns planted whole and — so that only an in-order stateful scan
// finds them — split across consecutive packets of one flow.
func corpus(seed int64, n int, tags ...uint16) []pkt {
	rng := rand.New(rand.NewSource(seed))
	plants := []string{"evil", "malware-body", "attack-sig", "/etc/passwd"}
	var carry [4]string // tail of a split pattern owed to the flow's next packet
	out := make([]pkt, n)
	for i := range out {
		f := rng.Intn(4)
		var b bytes.Buffer
		b.WriteString(carry[f])
		carry[f] = ""
		for k := 10 + rng.Intn(120); k > 0; k-- {
			b.WriteByte("abcdefghijklmnopqrstuvwxyz /-"[rng.Intn(29)])
		}
		switch p := plants[rng.Intn(len(plants))]; rng.Intn(4) {
		case 0: // whole
			b.WriteString(p)
		case 1: // split across this packet and the flow's next
			cut := 1 + rng.Intn(len(p)-1)
			b.WriteString(p[:cut])
			carry[f] = p[cut:]
		}
		out[i] = pkt{tag: tags[rng.Intn(len(tags))], tuple: flow(f), payload: b.Bytes()}
	}
	return out
}

// reference scans the corpus one packet at a time with Inspect, in
// order, and returns each packet's encoded report.
func reference(t *testing.T, eng *core.Engine, ps []pkt) [][]byte {
	t.Helper()
	want := make([][]byte, len(ps))
	for i, p := range ps {
		rep, err := eng.Inspect(p.tag, p.tuple, p.payload)
		if err != nil {
			t.Fatalf("reference Inspect %d: %v", i, err)
		}
		if rep != nil {
			want[i] = rep.AppendEncoded(nil)
		}
	}
	return want
}

// fabric is one transport pair under test.
type fabric struct {
	name   string
	server wire.Transport
	client wire.Transport
	// preload lands datagrams in the server transport's receive queue.
	// Called before the server starts, it makes them the server's first
	// ReadBatch, whole (up to wire.DefaultBatch datagrams).
	preload func(dgs []wire.Datagram)
}

func fabrics(t *testing.T) []fabric {
	t.Helper()
	nw := netsim.NewNetwork()
	ct, st := wire.NewNetsimTransport("client"), wire.NewNetsimTransport("server")
	for _, n := range []*wire.NetsimTransport{ct, st} {
		if err := nw.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.Connect(ct, st, netsim.LinkOpts{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Stop)
	out := []fabric{{name: "netsim", server: st, client: ct, preload: func(dgs []wire.Datagram) {
		for _, dg := range dgs {
			st.Recv(st.PortTo("client"), append([]byte(nil), dg.Buf...))
		}
	}}}

	us, err := wire.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	uc, err := wire.DialUDP(us.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	udp := fabric{name: "udp", server: us, client: uc}
	if us.Batched() { // without recvmmsg a ReadBatch is one datagram
		udp.preload = func(dgs []wire.Datagram) {
			if _, err := uc.WriteBatch(dgs); err != nil {
				t.Fatalf("preload: %v", err)
			}
		}
	}
	return append(out, udp)
}

// counters reads the server-side wire and engine instruments.
type counters struct{ reg *obs.Registry }

func (c counters) get(name string) uint64 { return c.reg.Counter(name).Value() }

// serve starts a wire server on tr with the scanner attached.
func serve(t *testing.T, tr wire.Transport, cfg wire.Config, sc *Scanner) counters {
	t.Helper()
	reg := obs.NewRegistry()
	srv := wire.NewServer(tr, testKey, cfg, wire.NewMetrics(reg))
	sc.Logf = t.Logf
	sc.Attach(srv)
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return counters{reg}
}

// TestBatchedReportsMatchPerPacket is the differential: over both
// transports, the results a client gets from the batched handler are
// byte-equal to per-packet Inspect of the same sequence — on a stateless
// chain, on a stateful chain with patterns split across packets that
// share a ReadBatch (and so a lane run), and on a mix of the two.
func TestBatchedReportsMatchPerPacket(t *testing.T) {
	for _, tc := range []struct {
		name string
		tags []uint16
	}{
		{"stateless", []uint16{statelessTag}},
		{"stateful", []uint16{statefulTag}},
		{"mixed", []uint16{statelessTag, statefulTag}},
	} {
		for _, fab := range fabrics(t) {
			t.Run(tc.name+"/"+fab.name, func(t *testing.T) {
				ps := corpus(11, 600, tc.tags...)
				want := reference(t, testEngine(t), ps)
				eng := testEngine(t)
				ctr := serve(t, fab.server, connCfg, &Scanner{Engine: func() *core.Engine { return eng }})

				var mu sync.Mutex
				got := make(map[uint32][]byte)
				conn := wire.NewConn(fab.client, wire.IssueToken(testKey, 1), "tg", connCfg, nil)
				conn.OnResult(func(seq uint32, report []byte) {
					mu.Lock()
					got[seq] = append([]byte(nil), report...)
					mu.Unlock()
				})
				if err := conn.Start(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { conn.Close() })
				seqs := make([]uint32, len(ps))
				for i, p := range ps {
					var err error
					if seqs[i], err = conn.SendData(p.tag, p.tuple, p.payload); err != nil {
						t.Fatalf("SendData %d: %v", i, err)
					}
				}
				conn.Flush()
				deadline := time.Now().Add(20 * time.Second)
				for done := false; !done; time.Sleep(2 * time.Millisecond) {
					mu.Lock()
					done = len(got) == len(ps)
					mu.Unlock()
					if time.Now().After(deadline) {
						t.Fatalf("got %d of %d results", len(got), len(ps))
					}
				}
				matched := 0
				for i := range ps {
					if !bytes.Equal(got[seqs[i]], want[i]) {
						t.Fatalf("packet %d (tag %d, %q): report %x, per-packet Inspect gives %x", i, ps[i].tag, ps[i].payload, got[seqs[i]], want[i])
					}
					if len(want[i]) > 0 {
						matched++
					}
				}
				if matched < len(ps)/10 {
					t.Fatalf("only %d of %d packets matched: the corpus exercises nothing", matched, len(ps))
				}

				// The run really was batched: several frames per ReadBatch,
				// no more acks than batches, and lane runs above one
				// packet.
				in, batches, acks := ctr.get("wire.frames_in"), ctr.get("wire.batches_in"), ctr.get("wire.acks_sent")
				if in < 2*batches {
					t.Errorf("%d frames in %d batches: nothing shared a ReadBatch", in, batches)
				}
				if acks > batches {
					t.Errorf("%d acks for %d batches, want at most one per batch", acks, batches)
				}
				snap := eng.Metrics().Snapshot()
				scan, _ := snap.Histogram("core.scan_ns")
				group, _ := snap.Histogram("core.batch_group_size")
				if scan.Count != uint64(len(ps)) {
					t.Errorf("core.scan_ns has %d observations for %d packets", scan.Count, len(ps))
				}
				if group.Sum != uint64(len(ps)) || group.Count >= group.Sum {
					t.Errorf("core.batch_group_size: %d runs holding %d packets, want %d packets in fewer runs", group.Count, group.Sum, len(ps))
				}
			})
		}
	}
}

// peer is a hand-driven wire client: it packs frames into datagrams for
// fabric.preload and reads the server's replies off the raw transport.
type peer struct {
	t     *testing.T
	tr    wire.Transport
	token uint64
	seq   uint32 // next reliable seq
	dgs   []wire.Datagram
	pack  int   // datagram size frames are packed up to
	count []int // frames in each of dgs

	frames  chan reply
	results map[uint32][]byte // data seq -> report
	acks    int               // TAck frames received
}

type reply struct {
	h       wire.Header
	payload []byte
}

func newPeer(t *testing.T, tr wire.Transport) *peer {
	p := &peer{t: t, tr: tr, token: wire.IssueToken(testKey, 1), seq: 1, pack: packMTU, frames: make(chan reply, 1024), results: make(map[uint32][]byte)}
	p.frame(wire.Header{Type: wire.THello, Token: p.token}, []byte("peer"))
	go func() { // ends when the transport is closed
		dgs := make([]wire.Datagram, wire.DefaultBatch)
		for i := range dgs {
			dgs[i].Buf = make([]byte, 0, wire.MaxDatagram)
		}
		for {
			n, err := tr.ReadBatch(dgs)
			if err != nil {
				close(p.frames)
				return
			}
			for _, dg := range dgs[:n] {
				for buf := dg.Buf; len(buf) > 0; {
					h, payload, rest, err := wire.NextFrame(buf)
					if err != nil {
						t.Errorf("peer: bad frame from server: %v", err)
						break
					}
					p.frames <- reply{h, append([]byte(nil), payload...)}
					buf = rest
				}
			}
		}
	}()
	t.Cleanup(func() { tr.Close() })
	return p
}

// The two ways a peer packs its datagrams: to an Ethernet-sized path,
// and to the largest datagram the wire carries (a loopback or jumbo
// path), where one datagram holds more small frames than HoldFrames.
const (
	packMTU = 1400
	packMax = wire.MaxDatagram
)

// frame packs one frame, opening a new datagram at p.pack bytes.
func (p *peer) frame(h wire.Header, payload []byte) {
	if n := len(p.dgs); n == 0 || len(p.dgs[n-1].Buf)+wire.HeaderLen+len(payload) > p.pack {
		p.dgs = append(p.dgs, wire.Datagram{})
		p.count = append(p.count, 0)
	}
	last := &p.dgs[len(p.dgs)-1]
	last.Buf = wire.AppendFrame(last.Buf, h, payload)
	p.count[len(p.count)-1]++
}

// data packs one TData frame and returns its seq.
func (p *peer) data(k pkt) uint32 {
	h := wire.Header{Type: wire.TData, Token: p.token, Seq: p.seq, Ack: 1}
	if k.traced {
		h.Flags = wire.FlagTrace
		p.frame(h, wire.AppendDataTraced(nil, k.tag, k.tuple, 0xabc, p.seq, k.payload))
	} else {
		p.frame(h, wire.AppendData(nil, k.tag, k.tuple, k.payload))
	}
	p.seq++
	return h.Seq
}

// collect reads replies until n results are in, acking each so the
// server's 256-frame send window never stalls the test.
func (p *peer) collect(n int) {
	p.t.Helper()
	timeout := time.After(10 * time.Second)
	for len(p.results) < n {
		select {
		case r, ok := <-p.frames:
			if !ok {
				p.t.Fatalf("transport closed with %d of %d results", len(p.results), n)
			}
			switch r.h.Type {
			case wire.TAck:
				p.acks++
			case wire.TResult:
				seq := uint32(r.payload[0])<<24 | uint32(r.payload[1])<<16 | uint32(r.payload[2])<<8 | uint32(r.payload[3])
				if _, dup := p.results[seq]; dup {
					continue // a retransmission raced our ack
				}
				p.results[seq] = r.payload[wire.ResultHdrLen:]
				ack := wire.AppendFrame(nil, wire.Header{Type: wire.TAck, Token: p.token, Ack: r.h.Seq + 1}, nil)
				if _, err := p.tr.WriteBatch([]wire.Datagram{{Buf: ack}}); err != nil {
					p.t.Fatalf("peer ack: %v", err)
				}
			}
		case <-timeout:
			p.t.Fatalf("timed out with %d of %d results", len(p.results), n)
		}
	}
}

// oneBatch preloads the packets, packed into datagrams of up to pack
// bytes, as the server's first ReadBatch, serves them with sc, and
// returns each packet's report next to the wire and engine counters as
// they stood when the last result arrived, and the most frames any one
// datagram carried.
func oneBatch(t *testing.T, fab fabric, sc *Scanner, ps []pkt, pack int) ([][]byte, counters, int) {
	t.Helper()
	if fab.preload == nil {
		t.Skip("transport reads one datagram per ReadBatch on this platform")
	}
	p := newPeer(t, fab.client)
	p.pack = pack
	seqs := make([]uint32, len(ps))
	for i, k := range ps {
		seqs[i] = p.data(k)
	}
	if len(p.dgs) > wire.DefaultBatch {
		t.Fatalf("%d datagrams do not fit one ReadBatch", len(p.dgs))
	}
	fab.preload(p.dgs)
	ctr := serve(t, fab.server, quietCfg, sc)
	p.collect(len(ps))
	got := make([][]byte, len(ps))
	for i, seq := range seqs {
		got[i] = p.results[seq]
	}
	return got, ctr, slices.Max(p.count)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func checkReports(t *testing.T, ps []pkt, got, want [][]byte) {
	t.Helper()
	for i := range ps {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("packet %d (%q): report %x, per-packet Inspect gives %x", i, ps[i].payload, got[i], want[i])
		}
	}
}

// More frames than the reorder window has slots, all in one ReadBatch:
// frame seq+256 rewrites the slot seq's payload was delivered from, so
// every result must have been computed before the scanner had held
// wire.HoldFrames frames. Packed to the largest datagram, a single
// datagram carries more frames than that: the scanner drains in the
// middle of it, which is safe because the payloads it holds alias
// reorder-window slots, never the datagram buffer.
func TestWindowOverrunInOneBatch(t *testing.T) {
	for _, pack := range []int{packMTU, packMax} {
		for _, fab := range fabrics(t) { // a fresh pair per run: the peer closes its transport
			t.Run(fmt.Sprintf("%s/pack%d", fab.name, pack), func(t *testing.T) {
				ps := make([]pkt, 300)
				for i := range ps {
					// The match position moves with i: no two neighbours share a report.
					ps[i] = pkt{tag: statelessTag, tuple: flow(i % 4), payload: []byte(fmt.Sprintf("%*sevil %03d", 1+i%40, "", i))}
				}
				want := reference(t, testEngine(t), ps)
				eng := testEngine(t)
				got, ctr, perDatagram := oneBatch(t, fab, &Scanner{Engine: func() *core.Engine { return eng }}, ps, pack)
				checkReports(t, ps, got, want)
				if over := ctr.get("wire.reorder_overflow_drops"); over != 0 {
					t.Errorf("%d frames dropped beyond the reorder window, want all 300 accepted in order", over)
				}
				if pack == packMax && perDatagram <= wire.HoldFrames {
					t.Errorf("fullest datagram carried %d frames, want more than HoldFrames (%d)", perDatagram, wire.HoldFrames)
				}
			})
		}
	}
}

// A traced frame takes the stage-timed path by itself; the untraced
// frames of its stateful flow on either side of it in the same batch
// must still be scanned in stream order, or the pattern split across
// the three is lost.
func TestTracedFrameKeepsStreamOrder(t *testing.T) {
	for _, fab := range fabrics(t) {
		t.Run(fab.name, func(t *testing.T) {
			ps := []pkt{
				{tag: statefulTag, tuple: flow(0), payload: []byte("lead-in atta")},
				{tag: statefulTag, tuple: flow(0), payload: []byte("ck-s"), traced: true},
				{tag: statefulTag, tuple: flow(0), payload: []byte("ig and evil")},
			}
			want := reference(t, testEngine(t), ps)
			if len(want[2]) == 0 {
				t.Fatal("reference found no cross-packet match")
			}
			eng := testEngine(t)
			tracer := trace.NewTracer("test", 64)
			got, _, _ := oneBatch(t, fab, &Scanner{Engine: func() *core.Engine { return eng }, Tracer: tracer}, ps, packMTU)
			checkReports(t, ps, got, want)
			stages := map[trace.Stage]bool{}
			for _, sp := range tracer.Snapshot() {
				stages[sp.Stage] = true
			}
			for _, st := range []trace.Stage{trace.StageDecode, trace.StageReassembly, trace.StageScan, trace.StageEncode} {
				if !stages[st] {
					t.Errorf("traced frame recorded no %v span", st)
				}
			}
		})
	}
}

// One ReadBatch costs one session one TAck and one WriteBatch, however
// many frames it carried.
func TestOneAckAndOneFlushPerBatch(t *testing.T) {
	for _, fab := range fabrics(t) {
		t.Run(fab.name, func(t *testing.T) {
			ps := corpus(3, 100, statelessTag, statefulTag)
			eng := testEngine(t)
			sc := &Scanner{Engine: func() *core.Engine { return eng }}
			if fab.preload == nil {
				t.Skip("transport reads one datagram per ReadBatch on this platform")
			}
			p := newPeer(t, fab.client)
			for _, k := range ps {
				p.data(k)
			}
			fab.preload(p.dgs)
			ctr := serve(t, fab.server, quietCfg, sc)
			// Results are read without acking, so the counters describe
			// the data batch alone. The TAck is staged last: once it is in,
			// at most the final write is still to be counted.
			timeout := time.After(10 * time.Second)
			for results, acked := 0, false; results < len(ps) || !acked; {
				select {
				case r := <-p.frames:
					results += b2i(r.h.Type == wire.TResult)
					acked = acked || r.h.Type == wire.TAck
				case <-timeout:
					t.Fatalf("timed out with %d of %d results", results, len(ps))
				}
			}
			for deadline := time.Now().Add(5 * time.Second); ctr.get("wire.batches_out") == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if in, acks, out := ctr.get("wire.batches_in"), ctr.get("wire.acks_sent"), ctr.get("wire.batches_out"); in != 1 || acks != 1 || out != 1 {
				t.Errorf("%d frames: %d ReadBatch, %d TAck, %d WriteBatch; want 1, 1, 1", len(ps)+1, in, acks, out)
			}
		})
	}
}

// The engine is loaded once per run, so a swap lands between runs of
// one batch: the first wire.HoldFrames packets are answered by the old
// engine, the rest by the new one.
func TestEngineSwapBetweenRuns(t *testing.T) {
	for _, fab := range fabrics(t) {
		t.Run(fab.name, func(t *testing.T) {
			ps := make([]pkt, wire.HoldFrames+20)
			for i := range ps {
				ps[i] = pkt{tag: statefulTag, tuple: flow(i % 4), payload: []byte(fmt.Sprintf("%*sold-sig new-sig", i%9, ""))}
			}
			oldRef, newRef := testEngine(t, "old-sig"), testEngine(t, "new-sig")
			want := append(reference(t, oldRef, ps[:wire.HoldFrames]), reference(t, newRef, ps[wire.HoldFrames:])...)

			engines := []*core.Engine{testEngine(t, "old-sig"), testEngine(t, "new-sig")}
			var loads atomic.Int32
			got, _, _ := oneBatch(t, fab, &Scanner{Engine: func() *core.Engine {
				return engines[min(int(loads.Add(1)), len(engines))-1]
			}}, ps, packMTU)
			checkReports(t, ps, got, want)
			if n := loads.Load(); n != 2 {
				t.Errorf("engine loaded %d times for two runs", n)
			}
		})
	}
}

// TestMatchedRunAllocFree drives runs in which every packet matches
// through the whole server side — receive batch, Scanner.drain, lane
// scheduler, report hand-over, encode, result frames — over loopback UDP
// from a hand-rolled client that itself allocates nothing, and counts
// the process's allocations: none once the reports have grown.
func TestMatchedRunAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("sync.Pool drops scratches under -race")
	}
	var udp *fabric
	for _, fab := range fabrics(t) {
		if fab.name == "udp" && fab.preload != nil {
			udp = &fab
		}
	}
	if udp == nil {
		t.Skip("no batch syscalls on this platform")
	}
	eng := testEngine(t)
	serve(t, udp.server, quietCfg, &Scanner{Engine: func() *core.Engine { return eng }})
	tr := udp.client
	t.Cleanup(func() { tr.Close() })

	const run = 13
	token := wire.IssueToken(testKey, 1)
	out := []wire.Datagram{{Buf: make([]byte, 0, wire.MaxDatagram)}}
	in := make([]wire.Datagram, wire.DefaultBatch)
	for i := range in {
		in[i].Buf = make([]byte, 0, wire.MaxDatagram)
	}
	data := make([]byte, 0, 256)
	payload := []byte("an evil malware-body with attack-sig")
	seq := uint32(1)
	// exchange sends frames and reads replies until want of them are
	// TResults (or one is a THelloAck), then acks the last result.
	exchange := func(want int) {
		if _, err := tr.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
		var lastResult uint32
		for got := 0; got < want; {
			n, err := tr.ReadBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, dg := range in[:n] {
				for buf := dg.Buf; len(buf) > 0; {
					h, _, rest, err := wire.NextFrame(buf)
					if err != nil {
						t.Fatal(err)
					}
					buf = rest
					if h.Type == wire.TResult {
						lastResult = h.Seq
						got++
					} else if h.Type == wire.THelloAck && want == 0 {
						return
					}
				}
			}
		}
		out[0].Buf = wire.AppendFrame(out[0].Buf[:0], wire.Header{Type: wire.TAck, Token: token, Ack: lastResult + 1}, nil)
		if _, err := tr.WriteBatch(out); err != nil {
			t.Fatal(err)
		}
	}
	out[0].Buf = wire.AppendFrame(out[0].Buf[:0], wire.Header{Type: wire.THello, Token: token}, []byte("peer"))
	exchange(0)
	oneRun := func() {
		out[0].Buf = out[0].Buf[:0]
		for i := 0; i < run; i++ {
			data = wire.AppendData(data[:0], uint16(statefulTag+i%2), flow(i%4), payload)
			out[0].Buf = wire.AppendFrame(out[0].Buf, wire.Header{Type: wire.TData, Token: token, Seq: seq, Ack: 1}, data)
			seq++
		}
		exchange(run)
	}
	for i := 0; i < 20; i++ {
		oneRun() // grow the report storage, the encode buffer and the scratches
	}
	if allocs := testing.AllocsPerRun(100, oneRun); allocs != 0 {
		t.Fatalf("a matched run of %d packets allocated %v allocs, want 0", run, allocs)
	}
	if got := eng.Snapshot().Reports; got != uint64(121*run) {
		t.Fatalf("%d reports for %d packets: not every packet matched", got, 121*run)
	}
}

// TestVerdictsLeaveWithTheirRun: a matched packet's verdict reaches the
// middlebox consumer as soon as its run is answered — not when the
// verdict conn next ticks (every RTOBase/4, 2.5 s here) or when the
// consumer acks something.
func TestVerdictsLeaveWithTheirRun(t *testing.T) {
	ms, err := wire.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan time.Time, 1)
	mbox := wire.NewServer(ms, testKey, quietCfg, nil)
	mbox.OnVerdict(func(*wire.Session, uint16, packet.FiveTuple, []byte) {
		select {
		case arrived <- time.Now():
		default:
		}
	})
	mbox.Start()
	t.Cleanup(func() { mbox.Close() })
	vt, err := wire.DialUDP(ms.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	slow := wire.Config{RTOBase: 10 * time.Second, JitterSeed: 7}
	verdicts := wire.NewConn(vt, wire.IssueToken(testKey, 2), "dpi-1", slow, nil)
	if err := verdicts.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { verdicts.Close() })

	is, err := wire.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t)
	serve(t, is, quietCfg, &Scanner{Engine: func() *core.Engine { return eng }, Verdicts: verdicts})
	ct, err := wire.DialUDP(is.LocalAddr().AP.String())
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(ct, wire.IssueToken(testKey, 1), "tg", quietCfg, nil)
	if err := conn.Start(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	sent := time.Now()
	if _, err := conn.SendData(statelessTag, flow(0), []byte("an evil payload")); err != nil {
		t.Fatal(err)
	}
	conn.Flush()
	select {
	case at := <-arrived:
		if d := at.Sub(sent); d > time.Second {
			t.Errorf("verdict arrived after %v, want well under the verdict conn's %v tick", d, slow.RTOBase/4)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no verdict within 2 s; the verdict conn ticks every %v", slow.RTOBase/4)
	}
}
