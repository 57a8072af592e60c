package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// loadgen is the one load generator of a run: one wire.Conn, the caller's
// goroutine sending and the conn's receive goroutine checking results.
// Traffic crosses the host's loopback interface only.
type loadgen struct {
	conn *wire.Conn
	w    *workload
	// check judges the result of send number i; nil accepts everything
	// (the bare-forwarding run has no reports to judge).
	check func(i int, report []byte) bool
	base  time.Time
	// timeout is how long a result may take before its packet counts as
	// failed.
	timeout time.Duration

	// Sender-owned.
	sent    int    // workload packets sent so far
	seq     uint32 // the next frame's seq; the conn carries only these sends
	traced  bool
	sampler trace.Sampler
	lost    int64 // results that never came back; drains stop waiting for them

	// slots is written by the sender before SendData and read by the
	// receiver when the result arrives; the conn's mutex orders the two.
	slots []slot

	mu        sync.Mutex // guards the receiver's account below
	answered  int64
	bytes     int64 // payload bytes whose result came back
	nonEmpty  int64 // non-empty reports, the probe's included: what mboxd is owed
	mismatch  int64
	probed    bool
	lat       []int64 // paced slice in progress: ns from due time to result
	recording bool
	// spans, when set, receives a driver.rtt span for every paced packet
	// from send number spanFrom on: the tail of the phase, which is what
	// the daemons' span rings still hold when they are scraped.
	spans    *spanLog
	spanFrom int
}

// slot remembers one in-flight packet by frame seq.
type slot struct {
	seq  uint32
	idx  int32 // send number; -1 for the set-up probe
	size int32
	due  int64
}

const slotRing = 1 << 16 // far above the 256-frame send window

// firstSeq is the seq a wire endpoint gives its first reliable frame.
const firstSeq = 1

func newLoadgen(conn *wire.Conn, w *workload, check func(int, []byte) bool) *loadgen {
	g := &loadgen{conn: conn, w: w, check: check, base: time.Now(), timeout: resultTimeout, slots: make([]slot, slotRing), seq: firstSeq}
	conn.OnResult(g.onResult)
	return g
}

func (g *loadgen) now() int64 { return int64(time.Since(g.base)) }

// unix converts a loadgen timestamp to Unix nanoseconds, the clock the
// daemons' spans use.
func (g *loadgen) unix(t int64) int64 { return g.base.UnixNano() + t }

// probe sends one packet on a flow outside the corpus and waits for its
// result: the instance is serving once it returns.
func (g *loadgen) probe(timeout time.Duration) error {
	payload := g.w.Corpus[0].Payload
	g.slots[g.seq%slotRing] = slot{seq: g.seq, idx: -1}
	if _, err := g.conn.SendData(g.w.Tags[0], probeTuple, payload); err != nil {
		return err
	}
	g.seq++
	g.conn.Flush()
	deadline := time.Now().Add(timeout)
	for {
		g.mu.Lock()
		ok := g.probed
		g.mu.Unlock()
		if ok {
			return nil
		}
		if err := g.conn.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("probe packet unanswered")
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// onResult runs on the conn's receive goroutine.
func (g *loadgen) onResult(dataSeq uint32, report []byte) {
	now := g.now()
	s := g.slots[dataSeq%slotRing]
	g.mu.Lock()
	defer g.mu.Unlock()
	if s.seq != dataSeq {
		g.mismatch++ // a result for a frame never sent
		return
	}
	if len(report) > 0 {
		g.nonEmpty++
	}
	if s.idx < 0 {
		g.probed = true
		return
	}
	g.answered++
	g.bytes += int64(s.size)
	if g.check != nil && !g.check(int(s.idx), report) {
		g.mismatch++
	}
	if g.recording {
		g.lat = append(g.lat, now-s.due)
		if g.spans != nil && int(s.idx) >= g.spanFrom {
			g.spans.add(span{Name: "driver.rtt", StartNs: g.unix(s.due), EndNs: g.unix(now), Parent: -1, Pkt: int64(s.idx)})
		}
	}
}

// send transmits the next packet of the workload's sequence, stamped
// with the time it was due.
func (g *loadgen) send(due int64) error {
	chain, tuple, payload := g.w.at(g.sent)
	seq := g.seq
	g.slots[seq%slotRing] = slot{seq: seq, idx: int32(g.sent), size: int32(len(payload)), due: due}
	var got uint32
	var err error
	if g.traced {
		got, err = g.conn.SendDataTraced(g.w.Tags[chain], tuple, g.sampler.TraceID(tuple), uint32(g.sent), payload)
	} else {
		got, err = g.conn.SendData(g.w.Tags[chain], tuple, payload)
	}
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("wire seq %d for send %d: the conn carried other frames", got, g.sent)
	}
	g.sent++
	g.seq++
	return nil
}

type account struct {
	t                                   int64
	answered, bytes, nonEmpty, mismatch int64
}

func (g *loadgen) snapshot() account {
	g.mu.Lock()
	defer g.mu.Unlock()
	return account{t: g.now(), answered: g.answered, bytes: g.bytes, nonEmpty: g.nonEmpty, mismatch: g.mismatch}
}

// resultTimeout is the default loadgen.timeout, and how long mboxd gets
// to consume the verdicts it is owed.
const resultTimeout = 5 * time.Second

// drain flushes and waits until every sent packet is answered. Results
// still missing after g.timeout are added to g.lost.
func (g *loadgen) drain() error {
	g.conn.Flush()
	deadline := time.Now().Add(g.timeout)
	for {
		missing := int64(g.sent) - g.lost - g.snapshot().answered
		if missing <= 0 {
			return nil
		}
		if err := g.conn.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			g.lost += missing
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// sendAll sends the next n packets of the sequence as fast as the send
// window allows and waits for their results.
func (g *loadgen) sendAll(n int) error {
	for k := 0; k < n; k++ {
		if err := g.send(0); err != nil {
			return err
		}
	}
	return g.drain()
}

// satSlice is one closed-loop measurement slice.
type satSlice struct {
	Packets     int64
	GoodputMbps float64
	InstCPUNs   float64 // dpinstance CPU ns per answered packet
	DriverCPUNs float64 // this process's CPU ns per answered packet
	InstUtilPct float64
}

// saturate runs the closed loop: the sender keeps the conn's send window
// full, so a slower system simply receives less load. After a warm-up of
// at least warm and warmPkts packets it measures one slice of d. instCPU
// reads the instance's CPU clock (nil skips the CPU metrics).
func (g *loadgen) saturate(warm time.Duration, warmPkts int, d time.Duration, instCPU func() (int64, error)) (satSlice, error) {
	type mark struct {
		a         account
		inst, own int64
	}
	take := func() (mark, error) {
		m := mark{a: g.snapshot(), own: selfCPUNanos()}
		if instCPU != nil {
			v, err := instCPU()
			if err != nil {
				return m, err
			}
			m.inst = v
		}
		return m, nil
	}
	// sendUntil sends in runs of 32 between clock reads.
	sendUntil := func(done func() bool) error {
		for !done() {
			for k := 0; k < 32; k++ {
				if err := g.send(0); err != nil {
					return err
				}
			}
		}
		return nil
	}
	start, first := g.now(), g.sent
	if err := sendUntil(func() bool { return g.now()-start >= int64(warm) && g.sent-first >= warmPkts }); err != nil {
		return satSlice{}, err
	}
	prev, err := take()
	if err != nil {
		return satSlice{}, err
	}
	end := g.now() + int64(d)
	if err := sendUntil(func() bool { return g.now() >= end }); err != nil {
		return satSlice{}, err
	}
	cur, err := take()
	if err != nil {
		return satSlice{}, err
	}
	dt := float64(cur.a.t - prev.a.t)
	pk := cur.a.answered - prev.a.answered
	if pk == 0 {
		return satSlice{}, errors.New("saturation slice answered no packets")
	}
	return satSlice{
		Packets:     pk,
		GoodputMbps: float64(cur.a.bytes-prev.a.bytes) * 8 / dt * 1e3,
		InstCPUNs:   float64(cur.inst-prev.inst) / float64(pk),
		DriverCPUNs: float64(cur.own-prev.own) / float64(pk),
		InstUtilPct: 100 * float64(cur.inst-prev.inst) / dt,
	}, nil
}

// pacedSlice is one open-loop measurement slice.
type pacedSlice struct {
	Samples int
	P50Us   float64
	P99Us   float64
	Late    int // sends more than lateThreshold behind schedule
}

// rttSpans is how many driver.rtt spans a traced paced phase records. The
// daemons' tracers keep 8192 spans, four per packet on dpinstance.
const rttSpans = 4096

// lateThreshold is how far behind schedule a paced send may be before it
// counts in driver.late_pct.
const lateThreshold = int64(time.Millisecond)

// pace runs the open loop for one slice of d: packet k is due at
// t0 + k/pps whatever the system does, and its latency runs from that due
// time, so a stall charges every packet queued behind it.
func (g *loadgen) pace(pps int, d time.Duration) (pacedSlice, error) {
	interval := float64(time.Second) / float64(pps)
	total := int(float64(pps) * d.Seconds())
	g.mu.Lock()
	g.lat = make([]int64, 0, total)
	g.recording = true
	g.spanFrom = g.sent + total - rttSpans
	g.mu.Unlock()

	late := 0
	t0 := g.now() + int64(time.Millisecond)
	staged := false
	for k := 0; k < total; {
		due := t0 + int64(float64(k)*interval)
		now := g.now()
		if now < due {
			if staged {
				g.conn.Flush()
				staged = false
			}
			time.Sleep(time.Duration(due - now))
			continue
		}
		if now-due > lateThreshold {
			late++
		}
		if err := g.send(due); err != nil {
			return pacedSlice{}, err
		}
		staged = true
		k++
	}
	if err := g.drain(); err != nil {
		return pacedSlice{}, err
	}
	g.mu.Lock()
	g.recording = false
	l := g.lat
	g.lat = nil
	g.mu.Unlock()
	if len(l) < 1000 {
		return pacedSlice{}, fmt.Errorf("paced slice has %d latency samples; too few for a 99th percentile", len(l))
	}
	sort.Slice(l, func(a, b int) bool { return l[a] < l[b] })
	return pacedSlice{
		Samples: len(l),
		P50Us:   float64(l[len(l)/2]) / 1e3,
		P99Us:   float64(l[len(l)*99/100]) / 1e3,
		Late:    late,
	}, nil
}

// median returns the median of vs (the mean of the middle two for an
// even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
