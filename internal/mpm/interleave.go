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
	n int
	s [LaneWidth]State
	w [LaneWidth]walk
}

// Len reports how many walks are in flight.
func (ls *Lanes) Len() int { return ls.n }

// Put starts l's walk in slot Len(). The caller keeps Len() below
// LaneWidth and l.Data non-empty (a walk over no bytes is already
// done).
//
//dpi:hotpath
func (ls *Lanes) Put(l Lane) {
	ls.s[ls.n], ls.w[ls.n] = l.State, walk{data: l.Data, active: l.Active, emit: l.Emit}
	ls.n++
}

// Done reports whether slot k's walk has consumed all its bytes.
func (ls *Lanes) Done(k int) bool { return len(ls.w[k].data) == 0 }

// State returns the DFA state slot k's walk has reached.
func (ls *Lanes) State(k int) State { return ls.s[k] }

// Drop takes slot k's walk out by moving the last walk, slot Len()-1,
// into its place; a caller keeping per-slot data moves it the same way.
//
//dpi:hotpath
func (ls *Lanes) Drop(k int) {
	ls.n--
	ls.s[k], ls.w[k] = ls.s[ls.n], ls.w[ls.n]
}

// Advance moves every walk forward by the bytes the shortest has left,
// so at least one is Done afterwards. Per walk, the emitted matches and
// the state reached are those of Scan over the same bytes; only the
// instruction schedule differs. Five to eight walks run in the eight-wide
// kernel, two to four in the four-wide one, a single walk in solo; empty
// slots of a kernel shadow slot 0 with every set masked off, which
// costs no cache line slot 0 does not already fetch.
//
//dpi:hotpath
func (a *ACFull) Advance(ls *Lanes) {
	if ls.n == 0 {
		return
	}
	n := len(ls.w[0].data)
	for k := 1; k < ls.n; k++ {
		n = min(n, len(ls.w[k].data))
	}
	switch {
	case ls.n == 1:
		ls.s[0] = a.solo(&ls.w[0], n, ls.s[0])
	case ls.n <= LaneWidth/2:
		ls.shadow(a, LaneWidth/2)
		step4(a, ls, n)
	default:
		ls.shadow(a, LaneWidth)
		step8(a, ls, n)
	}
	for k := 0; k < ls.n; k++ {
		w := &ls.w[k]
		if ls.n > 1 {
			ls.s[k] = w.exit(int(ls.s[k]))
		}
		w.data = w.data[n:]
		w.base += n
	}
}

// shadow points the empty slots below width at slot 0's bytes and state
// with no set active, so a kernel wider than Len() has bytes to walk
// and nothing to emit, and turns every slot's state into the row its
// walk reads next (walk.enter).
//
//dpi:hotpath
func (ls *Lanes) shadow(a *ACFull, width int) {
	for k := ls.n; k < width; k++ {
		ls.s[k], ls.w[k] = ls.s[0], walk{data: ls.w[0].data}
	}
	for k := 0; k < width; k++ {
		ls.s[k] = State(ls.w[k].enter(a, ls.s[k]))
	}
}

// step4 walks slots 0-3 in lockstep over their next n bytes. Per slot
// and byte the fast path is one class lookup, one table load and the
// compare int16(entry) < A (ACFull). Behind it, a hot accepting state
// is emitted here, as in Scan, and a negative entry — a cold state, or
// the escape row of a walk already cold — goes to ACFull.leave.
//
//dpi:hotpath
func step4(a *ACFull, ls *Lanes, n int) {
	next, cls, stride := a.next, &a.classOf, a.stride
	acc, bitmaps := int16(a.numAccepting), a.match.bitmaps
	d0, d1, d2, d3 := ls.w[0].data[:n], ls.w[1].data[:n], ls.w[2].data[:n], ls.w[3].data[:n]
	s0, s1, s2, s3 := int(ls.s[0]), int(ls.s[1]), int(ls.s[2]), int(ls.s[3])
	for i := 0; i < n; i++ {
		s0 = int(next[s0*stride+int(cls[d0[i]])])
		s1 = int(next[s1*stride+int(cls[d1[i]])])
		s2 = int(next[s2*stride+int(cls[d2[i]])])
		s3 = int(next[s3*stride+int(cls[d3[i]])])
		if int16(s0) < acc {
			if s0 >= int(acc) {
				s0 = a.leave(&ls.w[0], int16(s0), i)
			} else if bitmaps[s0]&ls.w[0].active != 0 {
				ls.w[0].emit(a.match.refsOf(State(s0)), ls.w[0].base+i+1)
			}
		}
		if int16(s1) < acc {
			if s1 >= int(acc) {
				s1 = a.leave(&ls.w[1], int16(s1), i)
			} else if bitmaps[s1]&ls.w[1].active != 0 {
				ls.w[1].emit(a.match.refsOf(State(s1)), ls.w[1].base+i+1)
			}
		}
		if int16(s2) < acc {
			if s2 >= int(acc) {
				s2 = a.leave(&ls.w[2], int16(s2), i)
			} else if bitmaps[s2]&ls.w[2].active != 0 {
				ls.w[2].emit(a.match.refsOf(State(s2)), ls.w[2].base+i+1)
			}
		}
		if int16(s3) < acc {
			if s3 >= int(acc) {
				s3 = a.leave(&ls.w[3], int16(s3), i)
			} else if bitmaps[s3]&ls.w[3].active != 0 {
				ls.w[3].emit(a.match.refsOf(State(s3)), ls.w[3].base+i+1)
			}
		}
	}
	ls.s[0], ls.s[1], ls.s[2], ls.s[3] = State(s0), State(s1), State(s2), State(s3)
}

// step8 walks all eight slots in lockstep over their next n bytes.
//
//dpi:hotpath
func step8(a *ACFull, ls *Lanes, n int) {
	next, cls, stride := a.next, &a.classOf, a.stride
	acc, bitmaps := int16(a.numAccepting), a.match.bitmaps
	d0, d1, d2, d3 := ls.w[0].data[:n], ls.w[1].data[:n], ls.w[2].data[:n], ls.w[3].data[:n]
	d4, d5, d6, d7 := ls.w[4].data[:n], ls.w[5].data[:n], ls.w[6].data[:n], ls.w[7].data[:n]
	s0, s1, s2, s3 := int(ls.s[0]), int(ls.s[1]), int(ls.s[2]), int(ls.s[3])
	s4, s5, s6, s7 := int(ls.s[4]), int(ls.s[5]), int(ls.s[6]), int(ls.s[7])
	for i := 0; i < n; i++ {
		s0 = int(next[s0*stride+int(cls[d0[i]])])
		s1 = int(next[s1*stride+int(cls[d1[i]])])
		s2 = int(next[s2*stride+int(cls[d2[i]])])
		s3 = int(next[s3*stride+int(cls[d3[i]])])
		s4 = int(next[s4*stride+int(cls[d4[i]])])
		s5 = int(next[s5*stride+int(cls[d5[i]])])
		s6 = int(next[s6*stride+int(cls[d6[i]])])
		s7 = int(next[s7*stride+int(cls[d7[i]])])
		if int16(s0) < acc {
			if s0 >= int(acc) {
				s0 = a.leave(&ls.w[0], int16(s0), i)
			} else if bitmaps[s0]&ls.w[0].active != 0 {
				ls.w[0].emit(a.match.refsOf(State(s0)), ls.w[0].base+i+1)
			}
		}
		if int16(s1) < acc {
			if s1 >= int(acc) {
				s1 = a.leave(&ls.w[1], int16(s1), i)
			} else if bitmaps[s1]&ls.w[1].active != 0 {
				ls.w[1].emit(a.match.refsOf(State(s1)), ls.w[1].base+i+1)
			}
		}
		if int16(s2) < acc {
			if s2 >= int(acc) {
				s2 = a.leave(&ls.w[2], int16(s2), i)
			} else if bitmaps[s2]&ls.w[2].active != 0 {
				ls.w[2].emit(a.match.refsOf(State(s2)), ls.w[2].base+i+1)
			}
		}
		if int16(s3) < acc {
			if s3 >= int(acc) {
				s3 = a.leave(&ls.w[3], int16(s3), i)
			} else if bitmaps[s3]&ls.w[3].active != 0 {
				ls.w[3].emit(a.match.refsOf(State(s3)), ls.w[3].base+i+1)
			}
		}
		if int16(s4) < acc {
			if s4 >= int(acc) {
				s4 = a.leave(&ls.w[4], int16(s4), i)
			} else if bitmaps[s4]&ls.w[4].active != 0 {
				ls.w[4].emit(a.match.refsOf(State(s4)), ls.w[4].base+i+1)
			}
		}
		if int16(s5) < acc {
			if s5 >= int(acc) {
				s5 = a.leave(&ls.w[5], int16(s5), i)
			} else if bitmaps[s5]&ls.w[5].active != 0 {
				ls.w[5].emit(a.match.refsOf(State(s5)), ls.w[5].base+i+1)
			}
		}
		if int16(s6) < acc {
			if s6 >= int(acc) {
				s6 = a.leave(&ls.w[6], int16(s6), i)
			} else if bitmaps[s6]&ls.w[6].active != 0 {
				ls.w[6].emit(a.match.refsOf(State(s6)), ls.w[6].base+i+1)
			}
		}
		if int16(s7) < acc {
			if s7 >= int(acc) {
				s7 = a.leave(&ls.w[7], int16(s7), i)
			} else if bitmaps[s7]&ls.w[7].active != 0 {
				ls.w[7].emit(a.match.refsOf(State(s7)), ls.w[7].base+i+1)
			}
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
