package mpm

// Streaming DFA lanes: several packets' DFA walks advance in lockstep
// inside one goroutine. A big merged automaton misses cache on most row
// loads, and a single scan chain serializes those misses — the next
// state load cannot issue until the previous one returns. Independent
// chains give the core that many loads in flight at once (memory-level
// parallelism), hiding most of the miss latency without threads. This is
// the software analogue of the paper's observation that the DFA walk,
// not pattern count, bounds throughput.
//
// Packets differ in length, so the walks are not grouped: a Lanes value
// holds up to LaneWidth of them, Advance moves them all until the
// shortest ends, and the caller replaces a finished walk with the next
// packet at once. Every slot stays busy until the queue runs dry, and
// the last few walks finish together in a narrower lockstep.

// LaneWidth is how many walks advance in lockstep. Eight against four,
// measured on the benchmark's four corpora in runs of 13 packets (MB/s
// of DFA, one core, byte-class rows): multi-tenant 629 against 453,
// attack-dense 377 against 289, http-mtu 916 against 695, small-pkt 824
// against 640 (the table is in DESIGN.md, "Transition-table layout").
const LaneWidth = 8

// Lane is one packet's scan: its payload, the DFA state to resume from,
// the active-set mask and the emit callback. ScanLanes updates State in
// place.
type Lane struct {
	Data   []byte
	State  State
	Active uint64
	Emit   EmitFunc
}

// Lanes is up to LaneWidth walks in flight, in slots [0, Len()). Put adds
// one, Advance moves them all, and a walk that is Done is read with State
// and taken out with Drop before the next Advance. The zero value is
// empty.
type Lanes struct {
	n      int
	d      [LaneWidth][]byte // each walk's bytes still to scan
	base   [LaneWidth]int    // bytes of it already scanned
	s      [LaneWidth]State
	active [LaneWidth]uint64
	emit   [LaneWidth]EmitFunc
}

// Len reports how many walks are in flight.
func (ls *Lanes) Len() int { return ls.n }

// Put starts l's walk in slot Len(). The caller keeps Len() below
// LaneWidth and l.Data non-empty (a walk over no bytes is already
// done).
//
//dpi:hotpath
func (ls *Lanes) Put(l Lane) {
	k := ls.n
	ls.d[k], ls.base[k], ls.s[k], ls.active[k], ls.emit[k] = l.Data, 0, l.State, l.Active, l.Emit
	ls.n++
}

// Done reports whether slot k's walk has consumed all its bytes.
func (ls *Lanes) Done(k int) bool { return len(ls.d[k]) == 0 }

// State returns the DFA state slot k's walk has reached.
func (ls *Lanes) State(k int) State { return ls.s[k] }

// Drop takes slot k's walk out by moving the last walk, slot Len()-1,
// into its place; a caller keeping per-slot data moves it the same way.
//
//dpi:hotpath
func (ls *Lanes) Drop(k int) {
	ls.n--
	m := ls.n
	ls.d[k], ls.base[k], ls.s[k], ls.active[k], ls.emit[k] = ls.d[m], ls.base[m], ls.s[m], ls.active[m], ls.emit[m]
}

// Advance moves every walk forward by the bytes the shortest has left,
// so at least one is Done afterwards. Per walk, the emitted matches and
// the state reached are those of Scan over the same bytes; only the
// instruction schedule differs. Five to eight walks run in the eight-wide
// kernel, two to four in the four-wide one, a single walk in scan; empty
// slots of a kernel shadow slot 0 with every set masked off, which
// costs no cache line slot 0 does not already fetch.
//
//dpi:hotpath
func (a *ACFull) Advance(ls *Lanes) {
	if a.next16 != nil {
		advance(a, a.next16, ls)
	} else {
		advance(a, a.next32, ls)
	}
}

// advance is Advance over a table of either width.
//
//dpi:hotpath
func advance[S stateID](a *ACFull, next []S, ls *Lanes) {
	if ls.n == 0 {
		return
	}
	n := len(ls.d[0])
	for k := 1; k < ls.n; k++ {
		if len(ls.d[k]) < n {
			n = len(ls.d[k])
		}
	}
	switch {
	case ls.n == 1:
		ls.s[0] = scan(a, next, ls.d[0][:n], ls.s[0], ls.active[0], ls.emit[0], ls.base[0])
	case ls.n <= LaneWidth/2:
		ls.shadow(LaneWidth / 2)
		step4(a, next, ls, n)
	default:
		ls.shadow(LaneWidth)
		step8(a, next, ls, n)
	}
	for k := 0; k < ls.n; k++ {
		ls.d[k] = ls.d[k][n:]
		ls.base[k] += n
	}
}

// shadow points the empty slots below width at slot 0's bytes and state
// with no set active, so a kernel wider than Len() has bytes to walk
// and nothing to emit.
//
//dpi:hotpath
func (ls *Lanes) shadow(width int) {
	for k := ls.n; k < width; k++ {
		ls.d[k], ls.s[k], ls.active[k] = ls.d[0], ls.s[0], 0
	}
}

// step4 walks slots 0-3 in lockstep over their next n bytes.
//
//dpi:hotpath
func step4[S stateID](a *ACFull, next []S, ls *Lanes, n int) {
	cls, stride := &a.classOf, uint(a.stride)
	acc, bitmaps := uint(a.numAccepting), a.match.bitmaps
	d0, d1, d2, d3 := ls.d[0][:n], ls.d[1][:n], ls.d[2][:n], ls.d[3][:n]
	s0, s1, s2, s3 := uint(ls.s[0]), uint(ls.s[1]), uint(ls.s[2]), uint(ls.s[3])
	for i := 0; i < n; i++ {
		s0 = uint(next[s0*stride+uint(cls[d0[i]])])
		s1 = uint(next[s1*stride+uint(cls[d1[i]])])
		s2 = uint(next[s2*stride+uint(cls[d2[i]])])
		s3 = uint(next[s3*stride+uint(cls[d3[i]])])
		if s0 < acc && bitmaps[s0]&ls.active[0] != 0 {
			ls.emit[0](a.match.refsOf(State(s0)), ls.base[0]+i+1)
		}
		if s1 < acc && bitmaps[s1]&ls.active[1] != 0 {
			ls.emit[1](a.match.refsOf(State(s1)), ls.base[1]+i+1)
		}
		if s2 < acc && bitmaps[s2]&ls.active[2] != 0 {
			ls.emit[2](a.match.refsOf(State(s2)), ls.base[2]+i+1)
		}
		if s3 < acc && bitmaps[s3]&ls.active[3] != 0 {
			ls.emit[3](a.match.refsOf(State(s3)), ls.base[3]+i+1)
		}
	}
	ls.s[0], ls.s[1], ls.s[2], ls.s[3] = State(s0), State(s1), State(s2), State(s3)
}

// step8 walks all eight slots in lockstep over their next n bytes.
//
//dpi:hotpath
func step8[S stateID](a *ACFull, next []S, ls *Lanes, n int) {
	cls, stride := &a.classOf, uint(a.stride)
	acc, bitmaps := uint(a.numAccepting), a.match.bitmaps
	d0, d1, d2, d3 := ls.d[0][:n], ls.d[1][:n], ls.d[2][:n], ls.d[3][:n]
	d4, d5, d6, d7 := ls.d[4][:n], ls.d[5][:n], ls.d[6][:n], ls.d[7][:n]
	s0, s1, s2, s3 := uint(ls.s[0]), uint(ls.s[1]), uint(ls.s[2]), uint(ls.s[3])
	s4, s5, s6, s7 := uint(ls.s[4]), uint(ls.s[5]), uint(ls.s[6]), uint(ls.s[7])
	for i := 0; i < n; i++ {
		s0 = uint(next[s0*stride+uint(cls[d0[i]])])
		s1 = uint(next[s1*stride+uint(cls[d1[i]])])
		s2 = uint(next[s2*stride+uint(cls[d2[i]])])
		s3 = uint(next[s3*stride+uint(cls[d3[i]])])
		s4 = uint(next[s4*stride+uint(cls[d4[i]])])
		s5 = uint(next[s5*stride+uint(cls[d5[i]])])
		s6 = uint(next[s6*stride+uint(cls[d6[i]])])
		s7 = uint(next[s7*stride+uint(cls[d7[i]])])
		if s0 < acc && bitmaps[s0]&ls.active[0] != 0 {
			ls.emit[0](a.match.refsOf(State(s0)), ls.base[0]+i+1)
		}
		if s1 < acc && bitmaps[s1]&ls.active[1] != 0 {
			ls.emit[1](a.match.refsOf(State(s1)), ls.base[1]+i+1)
		}
		if s2 < acc && bitmaps[s2]&ls.active[2] != 0 {
			ls.emit[2](a.match.refsOf(State(s2)), ls.base[2]+i+1)
		}
		if s3 < acc && bitmaps[s3]&ls.active[3] != 0 {
			ls.emit[3](a.match.refsOf(State(s3)), ls.base[3]+i+1)
		}
		if s4 < acc && bitmaps[s4]&ls.active[4] != 0 {
			ls.emit[4](a.match.refsOf(State(s4)), ls.base[4]+i+1)
		}
		if s5 < acc && bitmaps[s5]&ls.active[5] != 0 {
			ls.emit[5](a.match.refsOf(State(s5)), ls.base[5]+i+1)
		}
		if s6 < acc && bitmaps[s6]&ls.active[6] != 0 {
			ls.emit[6](a.match.refsOf(State(s6)), ls.base[6]+i+1)
		}
		if s7 < acc && bitmaps[s7]&ls.active[7] != 0 {
			ls.emit[7](a.match.refsOf(State(s7)), ls.base[7]+i+1)
		}
	}
	ls.s[0], ls.s[1], ls.s[2], ls.s[3] = State(s0), State(s1), State(s2), State(s3)
	ls.s[4], ls.s[5], ls.s[6], ls.s[7] = State(s4), State(s5), State(s6), State(s7)
}

// ScanLanes scans every lane to completion, streaming them through the
// slots in slice order: a slot whose lane ends takes the next lane at
// once. The per-lane result — emitted matches and final state — is
// identical to calling Scan(l.Data, l.State, l.Active, l.Emit) lane by
// lane.
//
//dpi:hotpath
func (a *ACFull) ScanLanes(lanes []Lane) {
	var (
		ls Lanes
		of [LaneWidth]int // slot k walks lanes[of[k]]
	)
	for q := 0; ; {
		for ; ls.n < LaneWidth && q < len(lanes); q++ {
			if len(lanes[q].Data) > 0 {
				of[ls.n] = q
				ls.Put(lanes[q])
			}
		}
		if ls.n == 0 {
			return
		}
		a.Advance(&ls)
		for k := 0; k < ls.n; {
			if !ls.Done(k) {
				k++
				continue
			}
			lanes[of[k]].State = ls.s[k]
			ls.Drop(k)
			of[k] = of[ls.n]
		}
	}
}
