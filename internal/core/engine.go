package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/regexengine"
	"dpiservice/internal/trace"
)

// Engine is one DPI service instance's scanning engine. It is safe for
// concurrent use and scans different flows in parallel: the flow table
// is sharded by tuple hash, every per-scan mutable structure lives in a
// pooled scratch record, and telemetry counters are atomic, so the hot
// path takes no global lock. A single instance can therefore use all of
// a machine's cores — the in-process equivalent of the paper's "k VMs,
// one per core" deployment (Section 6.2, Figure 8).
type Engine struct {
	// auto is the merged automaton, nil when no profile has a pattern:
	// InspectBatch streams each run of packets through mpm.LaneWidth
	// lockstep walks of it (inspectRun).
	auto *mpm.ACFull
	// start and foldStart are the automata's start states, the state a
	// new flow and every stateless scan begins in.
	start, foldStart mpm.State
	// autoFold matches the case-insensitive (Snort nocase) patterns
	// against a case-folded view of the payload; nil when no profile
	// has any.
	autoFold *mpm.ACFull
	foldMask uint64 // sets contributing nocase patterns
	profiles map[int]*compiledProfile
	// profileBySet is the hot-path view of profiles, indexed by set ID
	// (dense, nil holes) so emit avoids a map lookup per match.
	profileBySet []*compiledProfile
	// rxProfiles lists the profiles with regular expressions, in the
	// order their per-scan anchor scratch is laid out in scratch.rx.
	rxProfiles []*compiledProfile
	chains     map[uint16]*chainInfo

	// The flow table is sharded by FiveTuple.FastHash. Each shard has
	// its own lock, LRU clock and slice of one set-associative array of
	// inline entries, so packets of different flows proceed
	// concurrently.
	shards    []*flowShard
	shardMask uint64

	scratchPool sync.Pool // of *scratch
	// met caches the obs instruments (Config.Metrics or a private
	// registry); the hot path updates them through cached pointers.
	met *engineMetrics
	// fl is the optional flight recorder; rare events (flow evictions)
	// land there for post-mortem dumps. Set once before traffic.
	fl *trace.Flight
}

// SetFlight attaches a flight recorder so rare engine events (flow
// evictions) are captured for post-mortem dumps. Call once at setup
// time, before traffic flows; a nil recorder disables recording.
func (e *Engine) SetFlight(f *trace.Flight) { e.fl = f }

// StatsSnapshot is a plain-value copy of the engine's cumulative
// counters: Packets/Bytes presented, BytesScanned fed to the
// automaton, Matches reported post-filter, Reports produced non-empty,
// and the flow/regex counters.
type StatsSnapshot struct {
	Packets, Bytes, BytesScanned, Matches, Reports uint64
	FlowsEvicted, RegexConfirms, RegexHits         uint64
}

type chainInfo struct {
	tag     uint16
	members []*compiledProfile
	mask    uint64
	// anyUnlimited is set when some member scans unbounded; otherwise
	// statelessStop is the deepest finite stopping condition among the
	// stateless members (packet coordinates) and statefulLimited holds
	// the stateful members whose remaining depth shrinks with the flow
	// offset — the only per-packet recomputation left (Section 5.2).
	anyUnlimited    bool
	statelessStop   int
	statefulLimited []*compiledProfile
	anyStateful     bool
	// rxMembers holds the members with regular expressions so the
	// confirmation stage skips the rest.
	rxMembers []*compiledProfile

	// Per-chain counters — the controller uses these to decide
	// grouping and scale-out (Section 4.3). Atomic: chains are scanned
	// from many goroutines at once.
	packets atomic.Uint64
	bytes   atomic.Uint64
	matches atomic.Uint64
}

type compiledProfile struct {
	Profile
	bit uint64
	rx  *regexengine.Engine
	// rxIndex is this profile's slot in scratch.rx (per-scan anchor
	// bookkeeping); -1 when the profile has no regexes.
	rxIndex int
	// constraints holds Snort-style offset/depth windows for the
	// patterns that declared them; nil when the set has none so the
	// hot path pays nothing.
	constraints map[uint16]posConstraint
	// anchorOwner maps anchor ordinal (automaton pattern ID minus
	// RegexReportBase) to the owning regex slot and the anchor's index
	// within that regex.
	anchorOwner []anchorOwner
	regexSlots  []regexSlot
	hasPoor     bool
}

// posConstraint is a Snort offset/depth window: the match must start at
// or after Start, and with Limit > 0 must end at or before Limit.
type posConstraint struct {
	Start int64
	Limit int64
}

type anchorOwner struct {
	slot int // index into regexSlots
	idx  int // anchor index within the regex
}

type regexSlot struct {
	id         int // regex ID within the middlebox's set
	numAnchors int
}

// numShards picks a power-of-two shard count scaled to GOMAXPROCS (with
// headroom so unrelated flows rarely contend), bounded so that every
// shard can hold at least one flow under the configured table limit.
func numShards(override, maxFlows int) int {
	n := override
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 4
		if n < 8 {
			n = 8
		}
	}
	shards := 1
	for shards < n && shards < 256 {
		shards <<= 1
	}
	for shards > 1 && maxFlows/shards < 1 {
		shards >>= 1
	}
	return shards
}

// NewEngine compiles the configuration into a ready engine: it merges
// every profile's exact patterns and extracted regex anchors into one
// automaton and precomputes the per-chain masks and stopping conditions
// (Section 5.1's initialization).
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		profiles:     make(map[int]*compiledProfile, len(cfg.Profiles)),
		profileBySet: make([]*compiledProfile, mpm.MaxSets),
		chains:       make(map[uint16]*chainInfo, len(cfg.Chains)),
	}
	b := mpm.NewBuilder()
	bFold := mpm.NewBuilder()
	var literal, folded int
	for _, p := range cfg.Profiles {
		for _, pat := range p.Patterns.Patterns {
			if pat.NoCase {
				folded++
			} else {
				literal++
			}
		}
	}
	b.Grow(literal)
	bFold.Grow(folded)
	for _, p := range cfg.Profiles {
		cp := &compiledProfile{Profile: p, bit: 1 << uint(p.ID), rxIndex: -1}
		for _, pat := range p.Patterns.Patterns {
			if pat.NoCase {
				// Case-insensitive patterns live in the fold automaton
				// and are matched against a lowercased payload view.
				// Both sides fold ASCII only, as Snort's nocase does:
				// any other byte must match exactly.
				if err := bFold.Add(p.ID, pat.ID, string(appendLowerASCII(nil, []byte(pat.Content)))); err != nil {
					return nil, fmt.Errorf("core: middlebox %d nocase pattern %d: %w", p.ID, pat.ID, err)
				}
				e.foldMask |= 1 << uint(p.ID)
			} else if err := b.Add(p.ID, pat.ID, pat.Content); err != nil {
				return nil, fmt.Errorf("core: middlebox %d pattern %d: %w", p.ID, pat.ID, err)
			}
			if pat.Offset > 0 || pat.Depth > 0 {
				if cp.constraints == nil {
					cp.constraints = make(map[uint16]posConstraint)
				}
				c := posConstraint{Start: int64(pat.Offset)}
				if pat.Depth > 0 {
					c.Limit = int64(pat.Offset + pat.Depth)
				}
				cp.constraints[uint16(pat.ID)] = c
			}
		}
		if len(p.Patterns.Regexes) > 0 {
			cp.rx = regexengine.New(cfg.MinAnchorLen)
			for _, rx := range p.Patterns.Regexes {
				c, err := cp.rx.Add(rx.ID, rx.Expr)
				if err != nil {
					return nil, fmt.Errorf("core: middlebox %d: %w", p.ID, err)
				}
				slot := len(cp.regexSlots)
				cp.regexSlots = append(cp.regexSlots, regexSlot{id: rx.ID, numAnchors: len(c.Anchors)})
				if c.AnchorPoor() {
					cp.hasPoor = true
					continue
				}
				for ai, anchor := range c.Anchors {
					ord := len(cp.anchorOwner)
					autoID := RegexReportBase + ord
					if autoID >= mpm.MaxPatternsPerSet {
						return nil, fmt.Errorf("core: middlebox %d: too many regex anchors", p.ID)
					}
					if err := b.Add(p.ID, autoID, anchor); err != nil {
						return nil, fmt.Errorf("core: middlebox %d anchor %q: %w", p.ID, anchor, err)
					}
					cp.anchorOwner = append(cp.anchorOwner, anchorOwner{slot: slot, idx: ai})
				}
			}
			cp.rxIndex = len(e.rxProfiles)
			e.rxProfiles = append(e.rxProfiles, cp)
		}
		e.profiles[p.ID] = cp
		e.profileBySet[p.ID] = cp
	}
	build := (*mpm.Builder).BuildFull
	switch cfg.Kind {
	case AutoFull:
	case AutoCompact:
		build = (*mpm.Builder).BuildLean
	default:
		return nil, fmt.Errorf("core: unknown automaton kind %d", cfg.Kind)
	}
	auto, err := build(b)
	switch {
	case err == nil:
		e.auto, e.start = auto, auto.Start()
	case err != mpm.ErrNoPatterns:
		// A configuration with only regexes and no extractable anchors
		// yields an empty automaton; that is still a valid instance.
		return nil, err
	}
	if bFold.NumPatterns() > 0 {
		fold, err := build(bFold)
		if err != nil {
			return nil, err
		}
		e.autoFold, e.foldStart = fold, fold.Start()
	}
	for tag, members := range cfg.Chains {
		ci := &chainInfo{tag: tag}
		for _, id := range members {
			p := e.profiles[id]
			ci.members = append(ci.members, p)
			ci.mask |= p.bit
			if p.Stateful {
				ci.anyStateful = true
			}
			if p.rx != nil {
				ci.rxMembers = append(ci.rxMembers, p)
			}
			// Stopping conditions are resolved here, once, instead of
			// per packet: only stateful members with a finite depth
			// still depend on the flow offset at scan time.
			switch {
			case p.StopAfter == 0:
				ci.anyUnlimited = true
			case p.Stateful:
				ci.statefulLimited = append(ci.statefulLimited, p)
			case p.StopAfter > ci.statelessStop:
				ci.statelessStop = p.StopAfter
			}
		}
		e.chains[tag] = ci
	}
	n := numShards(cfg.Shards, cfg.MaxFlows)
	e.shards = make([]*flowShard, n)
	e.shardMask = uint64(n - 1)
	perShard := cfg.MaxFlows / n
	if perShard < 1 {
		perShard = 1
	}
	// The whole table is one zeroed allocation (a zero bucket is
	// empty), so building an engine touches none of it and a page of it
	// costs resident memory only once a flow hashes there.
	perShardBuckets := (perShard + flowWays - 1) / flowWays
	table := make([]flowBucket, n*perShardBuckets)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.met = newEngineMetrics(reg, n)
	for i := range e.shards {
		e.shards[i] = &flowShard{
			buckets:  table[i*perShardBuckets : (i+1)*perShardBuckets : (i+1)*perShardBuckets],
			maxFlows: perShard,
			scans:    e.met.shardScans[i],
		}
	}
	// Build-time facts exported as gauges so a /metrics scrape carries
	// the instance's static shape alongside its traffic counters.
	reg.Gauge("core.shards").Set(int64(n))
	reg.Gauge("core.patterns").Set(int64(e.NumPatterns()))
	reg.Gauge("core.states").Set(int64(e.NumStates()))
	reg.Gauge("core.memory_bytes").Set(e.MemoryBytes())
	if e.auto != nil {
		reg.Gauge("core.batch_lanes").Set(mpm.LaneWidth)
	}
	e.scratchPool.New = func() any { return e.newScratch() }
	return e, nil
}

// appendLowerASCII appends an ASCII-lowercased copy of src to dst.
func appendLowerASCII(dst, src []byte) []byte {
	for _, c := range src {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// checkWindow applies a pattern's offset/depth window given its end
// position; patterns without a declared window always pass.
func checkWindow(constraints map[uint16]posConstraint, r mpm.PatternRef, end int64) bool {
	c, ok := constraints[r.ID]
	if !ok {
		return true
	}
	start := end - int64(r.Len)
	if start < c.Start {
		return false
	}
	if c.Limit > 0 && end > c.Limit {
		return false
	}
	return true
}

// Inspect scans one packet payload belonging to the given policy-chain
// tag and flow tuple, returning the match report for the chain's
// middleboxes, or nil when nothing matched (the common case — the packet
// is then forwarded entirely unmodified). The returned report is freshly
// allocated and owned by the caller.
//
// Inspect is re-entrant: calls for different flows run fully in
// parallel, and calls for the same flow contend only on that flow's
// state (and only when the chain is stateful). Concurrent packets of
// one stateful flow are scanned one after another in check-out order, so
// callers needing exact stream order must submit a flow's packets
// sequentially.
//
//dpi:hotpath
func (e *Engine) Inspect(tag uint16, tuple packet.FiveTuple, payload []byte) (*packet.Report, error) {
	return e.inspectOne(tag, tuple, payload, nil)
}

// inspectOne scans one packet by itself: the one-packet composition of
// the stages the lane scheduler interleaves (see inspectRun). into is
// finish's.
//
//dpi:hotpath
func (e *Engine) inspectOne(tag uint16, tuple packet.FiveTuple, payload []byte, into *packet.Report) (*packet.Report, error) {
	chain, ok := e.chains[tag]
	if !ok {
		//dpi:coldalloc(error branch: unknown chain tags are a config bug, not traffic)
		return nil, &UnknownChainError{Tag: tag}
	}
	s := e.scratchPool.Get().(*scratch)
	for !e.prepare(chain, tuple, payload, s) {
		// Another scan has the flow checked out; it holds no lock we
		// could sleep on, and it is a DFA walk away from checking in.
		runtime.Gosched()
	}
	e.walk(s)
	rep := e.finish(s, into)
	e.scratchPool.Put(s)
	return rep, nil
}

// prepare runs everything ahead of the main DFA stage of one scan: flow
// lookup (admitting the flow on a miss) and, on stateful chains,
// check-out, per-packet metrics, stopping conditions, and report reset.
// The resulting scan plan is left in s.ps. It returns false, having done
// and counted nothing, when the chain is stateful and another scan has
// the flow checked out; the caller tries again after that scan's finish.
//
//dpi:hotpath
func (e *Engine) prepare(chain *chainInfo, tuple packet.FiveTuple, payload []byte, s *scratch) bool {
	h := tuple.FastHash()
	s.ps = pscan{chain: chain, tuple: tuple, state: e.start, foldState: e.foldStart}
	if !e.shards[h&e.shardMask].acquire(e, h, &s.ps) {
		return false
	}
	offset := s.ps.offset

	e.met.packets.Inc()
	e.met.bytes.Add(uint64(len(payload)))
	e.met.payloadBytes.Observe(uint64(len(payload)))
	s.epoch++

	// Determine how deep this packet must be scanned: the most
	// conservative (deepest) stopping condition among active
	// middleboxes (Section 5.2). The stateless part was folded into
	// one number at engine build time; only stateful members' windows
	// move with the flow offset.
	limit := len(payload)
	if !chain.anyUnlimited {
		deepest := int64(chain.statelessStop)
		for _, p := range chain.statefulLimited {
			if remaining := int64(p.StopAfter) - offset; remaining > deepest {
				deepest = remaining
			}
		}
		if deepest < int64(limit) {
			limit = int(deepest)
		}
	}

	s.report.Reset()
	s.cur = scanCtx{chain: chain, report: &s.report, offset: offset, fromRestore: chain.anyStateful && offset > 0}
	s.ps.scanData, s.ps.limit = payload, limit
	return true
}

// walk is the main DFA stage of a prepared scan run by itself; the lane
// scheduler runs the same stage of several scans in lockstep instead.
//
//dpi:hotpath
func (e *Engine) walk(s *scratch) {
	if e.auto == nil || s.ps.limit == 0 {
		return
	}
	s.ps.state = e.auto.Scan(s.ps.scanData[:s.ps.limit], s.ps.state, s.ps.chain.mask, s.emitFn)
	e.met.bytesScanned.Add(uint64(s.ps.limit))
}

// finish completes a prepared scan after the main DFA stage has run
// (s.ps.state updated): the case-fold scan, regex confirmation, flow
// check-in on stateful chains, counters, and the report hand-off — nil
// when nothing matched, otherwise a copy the caller owns or, when the
// caller passed its own reusable storage as into, into itself after it
// has traded storage with the scratch's report.
//
//dpi:hotpath
func (e *Engine) finish(s *scratch, into *packet.Report) *packet.Report {
	chain := s.ps.chain
	scanData, limit, offset := s.ps.scanData, s.ps.limit, s.ps.offset
	if e.autoFold != nil && limit > 0 && chain.mask&e.foldMask != 0 {
		s.foldBuf = appendLowerASCII(s.foldBuf[:0], scanData[:limit])
		s.ps.foldState = e.autoFold.Scan(s.foldBuf, s.ps.foldState, chain.mask, s.emitFn)
	}
	s.finishRegexes(chain, scanData, offset)

	// Check a stateful flow back in for its next packet, and charge the
	// packet to the flow's telemetry.
	s.ps.offset += int64(len(scanData))
	s.ps.sh.release(&s.ps, e.autoFold != nil, uint64(len(scanData)), s.cur.matches)
	chain.packets.Add(1)
	chain.bytes.Add(uint64(len(scanData)))
	chain.matches.Add(s.cur.matches)
	e.met.matches.Add(s.cur.matches)
	s.cur = scanCtx{}
	s.ps = pscan{}
	if s.report.Empty() {
		return nil
	}
	e.met.reports.Inc()
	if into != nil {
		// The scratch keeps into's old storage for its next report, so
		// neither side allocates once both have grown.
		*into, s.report = s.report, *into
		return into
	}
	// The scratch (and its report) go back to the pool; hand the
	// caller an owned copy. Non-empty reports are the rare case
	// (Section 6.5: >90% of packets match nothing), so the common path
	// stays allocation-free.
	//dpi:coldalloc(match path: Clone inlined here, runs only for matched packets)
	return s.report.Clone()
}

// EndFlow discards the scan state of a finished flow (e.g. on TCP FIN).
func (e *Engine) EndFlow(tuple packet.FiveTuple) {
	h := tuple.FastHash()
	if e.shards[h&e.shardMask].end(h, tuple) {
		e.met.flowsActive.Add(-1)
	}
}

// ActiveFlows reports the number of tracked flows.
func (e *Engine) ActiveFlows() int {
	n := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		n += sh.flows
		sh.mu.Unlock()
	}
	return n
}

// NumShards reports the flow-table shard count (the engine's degree of
// flow-level parallelism).
func (e *Engine) NumShards() int { return len(e.shards) }

// FlowStat is the per-flow telemetry MCA² uses to spot heavy flows.
type FlowStat struct {
	Tuple   packet.FiveTuple
	Bytes   uint64
	Matches uint64
}

// FlowStats snapshots every tracked flow's telemetry, sorted by tuple
// so repeated snapshots diff cleanly. It copies the whole table; the
// periodic heavy-flow export uses HeavyFlows instead.
func (e *Engine) FlowStats() []FlowStat {
	var out []FlowStat
	for _, sh := range e.shards {
		sh.walk(func(f FlowStat) { out = append(out, f) })
	}
	sort.Slice(out, func(i, j int) bool { return tupleLess(out[i].Tuple, out[j].Tuple) })
	return out
}

// HeavyFlows returns up to k tracked flows whose match density (matches
// per scanned byte) is at least minDensity, densest first and ties in
// tuple order — the heavy flows MCA² acts on (Section 4.3.1). It selects
// during the table walk, so it allocates in proportion to the flows it
// returns, not to the table.
func (e *Engine) HeavyFlows(k int, minDensity float64) []FlowStat {
	var top []FlowStat
	keep := func(f FlowStat) {
		if density(f) < minDensity || (len(top) == k && !heavier(f, top[k-1])) {
			return
		}
		if len(top) < k {
			top = append(top, f)
		}
		i := len(top) - 1
		for ; i > 0 && heavier(f, top[i-1]); i-- {
			top[i] = top[i-1]
		}
		top[i] = f
	}
	if k > 0 {
		for _, sh := range e.shards {
			sh.walk(keep)
		}
	}
	return top
}

// density is the flow's matches per scanned byte, 0 before any byte.
func density(f FlowStat) float64 {
	if f.Bytes == 0 {
		return 0
	}
	return float64(f.Matches) / float64(f.Bytes)
}

// heavier orders flows densest first, ties broken by tuple.
func heavier(a, b FlowStat) bool {
	if da, db := density(a), density(b); da != db {
		return da > db
	}
	return tupleLess(a.Tuple, b.Tuple)
}

// tupleLess orders five-tuples lexicographically by (src, dst, sport,
// dport, proto) — the deterministic telemetry order.
func tupleLess(a, b packet.FiveTuple) bool {
	if a.Src != b.Src {
		return string(a.Src[:]) < string(b.Src[:])
	}
	if a.Dst != b.Dst {
		return string(a.Dst[:]) < string(b.Dst[:])
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Protocol < b.Protocol
}

// Snapshot returns a copy of the cumulative counters (read from the
// engine's obs registry, which is the single source of truth).
func (e *Engine) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Packets:       e.met.packets.Value(),
		Bytes:         e.met.bytes.Value(),
		BytesScanned:  e.met.bytesScanned.Value(),
		Matches:       e.met.matches.Value(),
		Reports:       e.met.reports.Value(),
		FlowsEvicted:  e.met.flowsEvicted.Value(),
		RegexConfirms: e.met.regexConfirms.Value(),
		RegexHits:     e.met.regexHits.Value(),
	}
}

// MemoryBytes estimates the engine's data-structure footprint — the
// quantity Table 2's Space column reports: the merged automaton plus the
// case-fold automaton, when nocase patterns built one.
func (e *Engine) MemoryBytes() int64 {
	var bytes int64
	if e.auto != nil {
		bytes += e.auto.MemoryBytes()
	}
	if e.autoFold != nil {
		bytes += e.autoFold.MemoryBytes()
	}
	return bytes
}

// NumStates reports the state count of the merged automaton and the
// case-fold automaton together.
func (e *Engine) NumStates() int {
	n := 0
	if e.auto != nil {
		n += e.auto.NumStates()
	}
	if e.autoFold != nil {
		n += e.autoFold.NumStates()
	}
	return n
}

// NumPatterns reports the merged automaton's pattern count, including
// regex anchors.
func (e *Engine) NumPatterns() int {
	if e.auto == nil {
		return 0
	}
	return e.auto.NumPatterns()
}

// ChainStat is one chain's traffic counters.
type ChainStat struct {
	Tag     uint16
	Packets uint64
	Bytes   uint64
	Matches uint64
}

// ChainStats snapshots per-chain counters, sorted by tag.
func (e *Engine) ChainStats() []ChainStat {
	out := make([]ChainStat, 0, len(e.chains))
	for tag, ci := range e.chains {
		out = append(out, ChainStat{
			Tag:     tag,
			Packets: ci.packets.Load(),
			Bytes:   ci.bytes.Load(),
			Matches: ci.matches.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Chains returns the configured policy-chain tags, sorted.
func (e *Engine) Chains() []uint16 {
	tags := make([]uint16, 0, len(e.chains))
	for t := range e.chains {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}
