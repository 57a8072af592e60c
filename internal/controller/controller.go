// Package controller implements the logically-centralized DPI controller
// (Section 4.1 of the paper). It registers middleboxes, maintains the
// global pattern set with internal IDs and per-middlebox reference
// counts, receives policy chains from the traffic steering application
// and assigns them tags, derives initialization configurations for DPI
// service instances (optionally grouped by chain, Section 4.3), and
// collects instance telemetry for the MCA²-style stress monitor
// (Section 4.3.1).
package controller

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/mpm"
	"dpiservice/internal/obs"
	"dpiservice/internal/patterns"
	"dpiservice/internal/trace"
	"dpiservice/internal/wire"
)

// Errors returned by the controller.
var (
	ErrUnknownMbox     = errors.New("controller: unknown middlebox")
	ErrDuplicateMbox   = errors.New("controller: middlebox already registered")
	ErrRuleConflict    = errors.New("controller: rule ID conflicts within pattern set")
	ErrUnknownChain    = errors.New("controller: unknown policy chain")
	ErrTooManySets     = errors.New("controller: pattern-set identifiers exhausted")
	ErrUnknownInstance = errors.New("controller: unknown instance")
)

// Controller is the control-plane brain of the DPI service.
type Controller struct {
	mu sync.Mutex

	mboxes  map[string]*mboxRecord
	sets    map[string]*setRecord // keyed by middlebox type
	nextSet int

	global map[string]*globalPattern // exact-pattern dedup across all sets

	chains  map[uint16][]string
	nextTag uint16

	instances map[string]*instanceRecord

	// wireKey is the cluster key under which wire-transport session
	// tokens are minted (generated at construction, persisted with the
	// state so tokens survive a controller restart). wireIDs maps each
	// peer to its stable 32-bit session id.
	wireKey    uint64
	wireIDs    map[string]uint32
	nextWireID uint32

	version uint64 // bumped on any change affecting instance configs

	// initCache holds the encoded profile and chain sections of
	// instance_init bodies rendered at initVersion, keyed by initKey.
	initVersion uint64
	initCache   map[string][]byte

	// lease holds the liveness configuration (ConfigureLeases).
	lease LeaseConfig
	// onFailover, when set, receives every failover event computed by
	// SweepLeases; invoked without c.mu held.
	onFailover func(Failover)

	// now is the controller's clock, injectable for deterministic
	// health tests. Fixed at construction (tests overwrite it before
	// concurrent use).
	now func() time.Time

	// met caches the obs instruments (set once in New/NewWithMetrics).
	met *ctlMetrics

	// fl is the optional flight recorder: lease transitions and
	// failovers are recorded for post-mortem dumps. Set via SetFlight
	// before the lease monitor starts.
	fl *trace.Flight
}

// SetFlight attaches a flight recorder so lease transitions (Suspect,
// Dead) and failover plans are captured for post-mortem dumps. Call
// before StartLeaseMonitor; nil disables recording.
func (c *Controller) SetFlight(f *trace.Flight) {
	c.mu.Lock()
	c.fl = f
	c.mu.Unlock()
}

type mboxRecord struct {
	reg ctlproto.Register
	set *setRecord
}

type setRecord struct {
	index    int
	mboxType string
	// rules maps rule ID -> definition; all middleboxes of the type
	// share it. refs counts the middleboxes referencing each rule.
	rules map[int]ruleEntry
}

type ruleEntry struct {
	content string // exact bytes, or
	regex   string // regular expression (exactly one is set)
	mods    ctlproto.Modifiers
	refs    map[string]bool
}

type globalPattern struct {
	internalID int
	// refs: mboxID -> rule IDs referencing this content.
	refs map[string]map[int]bool
}

type instanceRecord struct {
	id        string
	chains    []uint16
	dedicated bool
	telemetry ctlproto.Telemetry
	hasTel    bool

	// Liveness (see health.go). lastRenewal is the clock reading of the
	// most recent lease renewal (or AddInstance); health advances
	// Healthy -> Suspect -> Dead as renewals are missed.
	lastRenewal time.Time
	health      HealthState
}

// New returns an empty controller with a private metrics registry.
func New() *Controller { return NewWithMetrics(nil) }

// NewWithMetrics returns an empty controller publishing its
// instruments into reg (nil selects a private registry, reachable via
// Metrics).
func NewWithMetrics(reg *obs.Registry) *Controller {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Controller{
		mboxes:     make(map[string]*mboxRecord),
		sets:       make(map[string]*setRecord),
		global:     make(map[string]*globalPattern),
		chains:     make(map[uint16][]string),
		nextTag:    1,
		instances:  make(map[string]*instanceRecord),
		wireKey:    wire.NewClusterKey(),
		wireIDs:    make(map[string]uint32),
		nextWireID: 1,
		lease:      DefaultLeaseConfig,
		now:        time.Now,
		met:        newCtlMetrics(reg),
	}
}

// Register adds a middlebox. Middleboxes of the same type — or one
// inheriting from an already-registered middlebox — share a pattern set
// (Section 4.1). It returns the assigned pattern-set index.
func (c *Controller) Register(reg ctlproto.Register) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg.MboxID == "" {
		return 0, fmt.Errorf("%w: empty middlebox ID", ErrUnknownMbox)
	}
	if prev, dup := c.mboxes[reg.MboxID]; dup {
		// Re-registering with an identical body is idempotent: a client
		// retrying after a lost ack gets the original answer back.
		// Diverging bodies are still a conflict.
		if prev.reg == reg {
			return prev.set.index, nil
		}
		return 0, fmt.Errorf("%w: %s", ErrDuplicateMbox, reg.MboxID)
	}
	typ := reg.Type
	if reg.InheritFrom != "" {
		parent, ok := c.mboxes[reg.InheritFrom]
		if !ok {
			return 0, fmt.Errorf("%w: inherit from %s", ErrUnknownMbox, reg.InheritFrom)
		}
		typ = parent.set.mboxType
	}
	if typ == "" {
		typ = reg.MboxID // untyped middleboxes get a private set
	}
	set, ok := c.sets[typ]
	if !ok {
		if c.nextSet >= mpm.MaxSets {
			return 0, ErrTooManySets
		}
		set = &setRecord{index: c.nextSet, mboxType: typ, rules: make(map[int]ruleEntry)}
		c.nextSet++
		c.sets[typ] = set
	}
	c.mboxes[reg.MboxID] = &mboxRecord{reg: reg, set: set}
	c.met.registrations.Inc()
	c.met.mboxes.Set(int64(len(c.mboxes)))
	c.bumpLocked()
	return set.index, nil
}

// Deregister removes a middlebox and drops its pattern references.
func (c *Controller) Deregister(mboxID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.mboxes[mboxID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMbox, mboxID)
	}
	ids := make([]int, 0, len(rec.set.rules))
	for id, r := range rec.set.rules {
		if r.refs[mboxID] {
			ids = append(ids, id)
		}
	}
	c.removeLocked(rec, ids)
	delete(c.mboxes, mboxID)
	c.met.deregistrations.Inc()
	c.met.mboxes.Set(int64(len(c.mboxes)))
	c.met.globalPatterns.Set(int64(len(c.global)))
	c.bumpLocked()
	return nil
}

// AddPatterns registers patterns for a middlebox. A pattern already
// registered by another middlebox is tracked under the same internal ID
// with an additional reference (Section 4.1). A rule ID already present
// in the set with different content or modifiers is a conflict.
func (c *Controller) AddPatterns(mboxID string, defs []ctlproto.PatternDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.mboxes[mboxID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMbox, mboxID)
	}
	// Validate first so the update is all-or-nothing.
	for _, d := range defs {
		if d.RuleID < 0 || d.RuleID >= core.RegexReportBase {
			return fmt.Errorf("%w: rule ID %d out of range", ErrRuleConflict, d.RuleID)
		}
		if (len(d.Content) == 0) == (d.Regex == "") {
			return fmt.Errorf("%w: rule %d must carry exactly one of content or regex",
				ErrRuleConflict, d.RuleID)
		}
		if d.Offset < 0 || d.Depth < 0 || (d.Regex != "" && d.Modifiers != ctlproto.Modifiers{}) {
			return fmt.Errorf("%w: rule %d: modifiers %+v", ErrRuleConflict, d.RuleID, d.Modifiers)
		}
		if existing, ok := rec.set.rules[d.RuleID]; ok {
			if existing.content != string(d.Content) || existing.regex != d.Regex || existing.mods != d.Modifiers {
				return fmt.Errorf("%w: rule %d redefined with different body", ErrRuleConflict, d.RuleID)
			}
		}
	}
	for _, d := range defs {
		entry, ok := rec.set.rules[d.RuleID]
		if !ok {
			entry = ruleEntry{content: string(d.Content), regex: d.Regex, mods: d.Modifiers, refs: make(map[string]bool)}
		}
		entry.refs[mboxID] = true
		rec.set.rules[d.RuleID] = entry
		if len(d.Content) > 0 {
			c.refGlobal(string(d.Content), mboxID, d.RuleID)
		}
	}
	c.met.patternsAdded.Add(uint64(len(defs)))
	c.met.globalPatterns.Set(int64(len(c.global)))
	c.bumpLocked()
	return nil
}

// PatternDefs renders a pattern set as the definitions a middlebox
// registers with AddPatterns: each content with its modifiers, then
// each regex.
func PatternDefs(set *patterns.Set) []ctlproto.PatternDef {
	defs := make([]ctlproto.PatternDef, 0, len(set.Patterns)+len(set.Regexes))
	for _, p := range set.Patterns {
		defs = append(defs, ctlproto.PatternDef{RuleID: p.ID, Content: []byte(p.Content),
			Modifiers: ctlproto.Modifiers{NoCase: p.NoCase, Offset: p.Offset, Depth: p.Depth}})
	}
	for _, r := range set.Regexes {
		defs = append(defs, ctlproto.PatternDef{RuleID: r.ID, Regex: r.Expr})
	}
	return defs
}

// RemovePatterns drops a middlebox's references to the given rule IDs.
// A rule (and its global pattern) survives while any other middlebox
// still references it.
func (c *Controller) RemovePatterns(mboxID string, ruleIDs []int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.mboxes[mboxID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownMbox, mboxID)
	}
	c.removeLocked(rec, ruleIDs)
	c.met.patternsRemoved.Add(uint64(len(ruleIDs)))
	c.met.globalPatterns.Set(int64(len(c.global)))
	c.bumpLocked()
	return nil
}

func (c *Controller) removeLocked(rec *mboxRecord, ruleIDs []int) {
	for _, id := range ruleIDs {
		entry, ok := rec.set.rules[id]
		if !ok || !entry.refs[rec.reg.MboxID] {
			continue
		}
		delete(entry.refs, rec.reg.MboxID)
		if entry.content != "" {
			c.unrefGlobal(entry.content, rec.reg.MboxID, id)
		}
		if len(entry.refs) == 0 {
			delete(rec.set.rules, id)
		}
	}
}

func (c *Controller) refGlobal(content, mboxID string, ruleID int) {
	gp, ok := c.global[content]
	if !ok {
		gp = &globalPattern{internalID: len(c.global), refs: make(map[string]map[int]bool)}
		c.global[content] = gp
	}
	if gp.refs[mboxID] == nil {
		gp.refs[mboxID] = make(map[int]bool)
	}
	gp.refs[mboxID][ruleID] = true
}

func (c *Controller) unrefGlobal(content, mboxID string, ruleID int) {
	gp, ok := c.global[content]
	if !ok {
		return
	}
	if rules := gp.refs[mboxID]; rules != nil {
		delete(rules, ruleID)
		if len(rules) == 0 {
			delete(gp.refs, mboxID)
		}
	}
	if len(gp.refs) == 0 {
		delete(c.global, content)
	}
}

// GlobalPatternCount reports the number of distinct exact patterns known
// across all middleboxes.
func (c *Controller) GlobalPatternCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.global)
}

// DefineChain records a policy chain received from the TSA and assigns
// it a tag (Section 4.1). Members must be registered middlebox IDs; the
// order is the traversal order.
func (c *Controller) DefineChain(members []string) (uint16, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range members {
		if _, ok := c.mboxes[m]; !ok {
			return 0, fmt.Errorf("%w: chain member %s", ErrUnknownMbox, m)
		}
	}
	tag := c.nextTag
	c.nextTag++
	c.chains[tag] = append([]string(nil), members...)
	c.met.chainsDefined.Inc()
	c.met.chains.Set(int64(len(c.chains)))
	c.bumpLocked()
	return tag, nil
}

// Chain returns the member middlebox IDs of a chain tag.
func (c *Controller) Chain(tag uint16) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.chains[tag]
	if !ok {
		return nil, fmt.Errorf("%w: tag %d", ErrUnknownChain, tag)
	}
	return append([]string(nil), m...), nil
}

// ChainTags returns all defined chain tags in ascending order.
func (c *Controller) ChainTags() []uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	tags := make([]uint16, 0, len(c.chains))
	for t := range c.chains {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// Version reports the configuration version, bumped on every change
// that affects instance configurations.
func (c *Controller) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// WireKey reports the cluster key under which wire-transport session
// tokens are minted. Wire servers (DPI instances, verdict consumers)
// receive it over the control channel and validate tokens locally.
func (c *Controller) WireKey() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireKey
}

// IssueWireToken mints (or returns the previously-minted) wire session
// token for the named peer. Tokens are stable per peer ID, so retried
// registrations and restarted daemons get the same token back.
func (c *Controller) IssueWireToken(peerID string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireTokenLocked(peerID)
}

func (c *Controller) wireTokenLocked(peerID string) uint64 {
	sid, ok := c.wireIDs[peerID]
	if !ok {
		sid = c.nextWireID
		c.nextWireID++
		c.wireIDs[peerID] = sid
	}
	return wire.IssueToken(c.wireKey, sid)
}

// InstanceConfig derives the engine configuration for a DPI service
// instance serving the given chain tags — the deployment-grouping
// mechanism of Section 4.3 (nil means all chains). Only middleboxes
// appearing on the served chains are included.
func (c *Controller) InstanceConfig(tags []uint16, compact bool) (core.Config, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.instanceConfigLocked(c.tagsLocked(tags), compact)
}

// tagsLocked resolves an instance's served chains: nil means every
// chain, in ascending tag order.
func (c *Controller) tagsLocked(tags []uint16) []uint16 {
	if tags != nil {
		return tags
	}
	tags = make([]uint16, 0, len(c.chains))
	for t := range c.chains {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// instanceConfigLocked is InstanceConfig for resolved tags.
func (c *Controller) instanceConfigLocked(tags []uint16, compact bool) (core.Config, error) {
	cfg := core.Config{Chains: make(map[uint16][]int, len(tags))}
	if compact {
		cfg.Kind = core.AutoCompact
	}
	included := make(map[int]bool)
	for _, tag := range tags {
		members, ok := c.chains[tag]
		if !ok {
			return core.Config{}, fmt.Errorf("%w: tag %d", ErrUnknownChain, tag)
		}
		var ids []int
		seen := make(map[int]bool)
		for _, m := range members {
			rec := c.mboxes[m]
			if rec == nil {
				return core.Config{}, fmt.Errorf("%w: %s", ErrUnknownMbox, m)
			}
			idx := rec.set.index
			// A chain may list two middleboxes of one type; the
			// engine scans their shared set once.
			if !seen[idx] {
				seen[idx] = true
				ids = append(ids, idx)
			}
			if !included[idx] {
				included[idx] = true
				cfg.Profiles = append(cfg.Profiles, c.profileLocked(rec.set))
			}
		}
		cfg.Chains[tag] = ids
	}
	sort.Slice(cfg.Profiles, func(i, j int) bool { return cfg.Profiles[i].ID < cfg.Profiles[j].ID })
	return cfg, nil
}

// profileLocked assembles the engine profile of one pattern set,
// combining the properties of all middleboxes sharing it: the set is
// stateful if any member is, and its stopping condition is the deepest
// among members (0/unlimited dominating).
func (c *Controller) profileLocked(set *setRecord) core.Profile {
	p := core.Profile{ID: set.index, Name: set.mboxType, Patterns: &patterns.Set{Name: set.mboxType}}
	unlimited := false
	for _, rec := range c.mboxes {
		if rec.set != set {
			continue
		}
		if rec.reg.Stateful {
			p.Stateful = true
		}
		if rec.reg.StopAfter == 0 {
			unlimited = true
		} else if rec.reg.StopAfter > p.StopAfter {
			p.StopAfter = rec.reg.StopAfter
		}
		// ReadOnly is a routing property, not a scanning one; the TSA
		// consumes it via MboxInfo.
	}
	if unlimited {
		p.StopAfter = 0
	}
	ids := make([]int, 0, len(set.rules))
	for id := range set.rules {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := set.rules[id]
		if r.content != "" {
			p.Patterns.Patterns = append(p.Patterns.Patterns,
				patterns.Pattern{ID: id, Content: r.content, NoCase: r.mods.NoCase, Offset: r.mods.Offset, Depth: r.mods.Depth})
		} else {
			p.Patterns.Regexes = append(p.Patterns.Regexes,
				patterns.Regex{ID: id, Expr: r.regex})
		}
	}
	return p
}

// InstanceInitMsg renders the instance_init message for one instance
// as the instance receives it: the binary body of initBody, decoded.
func (c *Controller) InstanceInitMsg(instanceID string, tags []uint16, compact bool) (ctlproto.InstanceInit, error) {
	head, section, err := c.initBody(instanceID, tags, compact)
	if err != nil {
		return ctlproto.InstanceInit{}, err
	}
	return ctlproto.DecodeInstanceInit(append(head, section...))
}

// initBody renders the binary instance_init body for one instance in
// two parts: a head of the per-instance fields and the profile and
// chain section. The section is shared by every instance served the
// same chains at one configuration version, so it is rendered once per
// version and must not be modified.
func (c *Controller) initBody(instanceID string, tags []uint16, compact bool) (head, section []byte, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if section, err = c.initSectionLocked(tags); err != nil {
		return nil, nil, err
	}
	head = ctlproto.AppendInitHead(nil, &ctlproto.InstanceInit{
		InstanceID: instanceID, Compact: compact, Version: c.version,
		WireKey: c.wireKey, WireToken: c.wireTokenLocked(instanceID),
	})
	return head, section, nil
}

// initSectionLocked returns the encoded profile and chain section for
// the given chains at the current version, from the cache when it was
// rendered before.
func (c *Controller) initSectionLocked(tags []uint16) ([]byte, error) {
	key := initKey(tags)
	if c.initVersion != c.version {
		c.initVersion, c.initCache = c.version, nil
	}
	if sec, ok := c.initCache[key]; ok {
		return sec, nil
	}
	tags = c.tagsLocked(tags)
	cfg, err := c.instanceConfigLocked(tags, false)
	if err != nil {
		return nil, err
	}
	profiles := make([]ctlproto.ProfileDef, len(cfg.Profiles))
	for i, p := range cfg.Profiles {
		profiles[i] = ctlproto.ProfileDef{
			Set: p.ID, Name: p.Name, Stateful: p.Stateful,
			ReadOnly: p.ReadOnly, StopAfter: p.StopAfter,
			Mboxes:   c.setMembersLocked(p.ID),
			Patterns: PatternDefs(p.Patterns),
		}
	}
	chains := make([]ctlproto.ChainDef, len(tags))
	for i, tag := range tags {
		chains[i] = ctlproto.ChainDef{Tag: tag, Members: c.chains[tag]}
	}
	sec := ctlproto.AppendInitSection(nil, profiles, chains)
	if c.initCache == nil {
		c.initCache = make(map[string][]byte)
	}
	c.initCache[key] = sec
	return sec, nil
}

// initKey names a served-chain selection in the section cache: nil
// (every chain) apart from any explicit list.
func initKey(tags []uint16) string {
	if tags == nil {
		return "*"
	}
	b := make([]byte, 0, 1+2*len(tags))
	b = append(b, '=')
	for _, t := range tags {
		b = binary.BigEndian.AppendUint16(b, t)
	}
	return string(b)
}

// setMembersLocked lists the registered middlebox IDs whose set has the
// given index, sorted for determinism.
func (c *Controller) setMembersLocked(setIndex int) []string {
	var out []string
	for id, rec := range c.mboxes {
		if rec.set.index == setIndex {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// ConfigFromInit reconstructs an engine configuration from an
// InstanceInit message — the instance-side half of initialization. The
// pattern strings share one backing string, built with one allocation.
func ConfigFromInit(init ctlproto.InstanceInit) (core.Config, error) {
	cfg := core.Config{Chains: make(map[uint16][]int, len(init.Chains))}
	if init.Compact {
		cfg.Kind = core.AutoCompact
	}
	var total int
	for _, pd := range init.Profiles {
		for _, d := range pd.Patterns {
			if d.Regex == "" {
				total += len(d.Content)
			}
		}
	}
	var sb strings.Builder
	sb.Grow(total)
	for _, pd := range init.Profiles {
		for _, d := range pd.Patterns {
			if d.Regex == "" {
				sb.Write(d.Content)
			}
		}
	}
	contents, off := sb.String(), 0
	byMbox := make(map[string]int)
	for _, pd := range init.Profiles {
		p := core.Profile{
			ID: pd.Set, Name: pd.Name, Stateful: pd.Stateful,
			ReadOnly: pd.ReadOnly, StopAfter: pd.StopAfter,
			Patterns: &patterns.Set{Name: pd.Name, Patterns: make([]patterns.Pattern, 0, len(pd.Patterns))},
		}
		for _, d := range pd.Patterns {
			if d.Regex != "" {
				p.Patterns.Regexes = append(p.Patterns.Regexes, patterns.Regex{ID: d.RuleID, Expr: d.Regex})
			} else {
				p.Patterns.Patterns = append(p.Patterns.Patterns, patterns.Pattern{ID: d.RuleID, Content: contents[off : off+len(d.Content)],
					NoCase: d.NoCase, Offset: d.Offset, Depth: d.Depth})
				off += len(d.Content)
			}
		}
		cfg.Profiles = append(cfg.Profiles, p)
		for _, m := range pd.Mboxes {
			byMbox[m] = pd.Set
		}
		byMbox[pd.Name] = pd.Set
	}
	for _, ch := range init.Chains {
		var ids []int
		seen := make(map[int]bool)
		for _, m := range ch.Members {
			idx, ok := byMbox[m]
			if !ok {
				return core.Config{}, fmt.Errorf("%w: chain %d member %s", ErrUnknownMbox, ch.Tag, m)
			}
			if !seen[idx] {
				seen[idx] = true
				ids = append(ids, idx)
			}
		}
		cfg.Chains[ch.Tag] = ids
	}
	return cfg, nil
}

// MboxInfo describes a registered middlebox for the TSA.
type MboxInfo struct {
	MboxID   string
	Type     string
	Set      int
	ReadOnly bool
	Stateful bool
}

// Mbox returns registration info for one middlebox.
func (c *Controller) Mbox(id string) (MboxInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.mboxes[id]
	if !ok {
		return MboxInfo{}, fmt.Errorf("%w: %s", ErrUnknownMbox, id)
	}
	return MboxInfo{
		MboxID: id, Type: rec.set.mboxType, Set: rec.set.index,
		ReadOnly: rec.reg.ReadOnly, Stateful: rec.reg.Stateful,
	}, nil
}

// --- instance lifecycle and telemetry -------------------------------

// AddInstance records a deployed DPI service instance and the chains it
// serves. The instance starts Healthy with a fresh lease; a re-added
// instance (an instance re-helloing after the controller declared it
// dead) is restored to Healthy.
func (c *Controller) AddInstance(id string, tags []uint16, dedicated bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.instances[id]; !ok {
		c.met.instancesAdded.Inc()
	}
	c.instances[id] = &instanceRecord{
		id: id, chains: append([]uint16(nil), tags...), dedicated: dedicated,
		lastRenewal: c.now(), health: Healthy,
	}
	c.met.instances.Set(int64(len(c.instances)))
	c.healthGaugesLocked()
}

// RemoveInstance forgets an instance.
func (c *Controller) RemoveInstance(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.instances[id]; ok {
		c.met.instancesRemoved.Inc()
	}
	delete(c.instances, id)
	c.met.instances.Set(int64(len(c.instances)))
	c.healthGaugesLocked()
}

// ReportTelemetry ingests an instance's periodic report.
func (c *Controller) ReportTelemetry(tel ctlproto.Telemetry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.instances[tel.InstanceID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownInstance, tel.InstanceID)
	}
	rec.telemetry = tel
	rec.hasTel = true
	c.met.telemetryReports.Inc()
	return nil
}

// InstanceTelemetry returns the latest telemetry of an instance.
func (c *Controller) InstanceTelemetry(id string) (ctlproto.Telemetry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.instances[id]
	if !ok || !rec.hasTel {
		return ctlproto.Telemetry{}, false
	}
	return rec.telemetry, true
}

// Instances lists known instance IDs (sorted), optionally filtering for
// dedicated ones.
func (c *Controller) Instances(dedicatedOnly bool) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.instances))
	for id, rec := range c.instances {
		if dedicatedOnly && !rec.dedicated {
			continue
		}
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
