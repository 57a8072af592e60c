package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dpiservice/internal/ctlproto"
)

// This file persists the controller's registration state so a restarted
// dpictl resumes with the same middleboxes, pattern sets, chain tags
// and instances — the control-plane durability a logically-centralized
// component needs (Section 4.1). The snapshot is JSON for the same
// reason the control protocol is: it is inspectable and the volumes are
// small (pattern sets are kilobytes to a few megabytes).

const stateVersion = 1

type stateFile struct {
	Version   int             `json:"version"`
	Mboxes    []stateMbox     `json:"mboxes"`
	Sets      []stateSet      `json:"sets"`
	Chains    []stateChain    `json:"chains"`
	NextTag   uint16          `json:"next_tag"`
	NextSet   int             `json:"next_set"`
	Instances []stateInstance `json:"instances"`
	// WireKey and the session-id table make controller-issued wire
	// tokens survive a restart: daemons holding old tokens keep
	// working against servers that reload the same key. Zero WireKey
	// (a pre-wire snapshot) keeps the freshly-generated key.
	WireKey    uint64        `json:"wire_key,omitempty"`
	NextWireID uint32        `json:"next_wire_id,omitempty"`
	WireIDs    []stateWireID `json:"wire_ids,omitempty"`
}

type stateWireID struct {
	PeerID  string `json:"peer_id"`
	Session uint32 `json:"session"`
}

type stateMbox struct {
	MboxID      string `json:"mbox_id"`
	Name        string `json:"name"`
	Type        string `json:"mbox_type"`
	Stateful    bool   `json:"stateful,omitempty"`
	ReadOnly    bool   `json:"read_only,omitempty"`
	StopAfter   int    `json:"stop_after,omitempty"`
	InheritFrom string `json:"inherit_from,omitempty"`
	FailMode    string `json:"fail_mode,omitempty"`
	SetType     string `json:"set_type"` // resolved set key
}

type stateSet struct {
	Type  string      `json:"type"`
	Index int         `json:"index"`
	Rules []stateRule `json:"rules"`
}

type stateRule struct {
	ID      int      `json:"id"`
	Content []byte   `json:"content,omitempty"`
	Regex   string   `json:"regex,omitempty"`
	Refs    []string `json:"refs"`
	ctlproto.Modifiers
}

type stateChain struct {
	Tag     uint16   `json:"tag"`
	Members []string `json:"members"`
}

type stateInstance struct {
	ID        string   `json:"id"`
	Tags      []uint16 `json:"tags,omitempty"`
	Dedicated bool     `json:"dedicated,omitempty"`
}

// Errors of the persistence layer.
var (
	ErrNotEmpty     = errors.New("controller: LoadState requires an empty controller")
	ErrBadStateFile = errors.New("controller: malformed state file")
)

// SaveState writes a snapshot of the controller's configuration.
func (c *Controller) SaveState(w io.Writer) error {
	c.mu.Lock()
	st := stateFile{
		Version: stateVersion, NextTag: c.nextTag, NextSet: c.nextSet,
		WireKey: c.wireKey, NextWireID: c.nextWireID,
	}
	for id, sid := range c.wireIDs {
		st.WireIDs = append(st.WireIDs, stateWireID{PeerID: id, Session: sid})
	}
	sort.Slice(st.WireIDs, func(i, j int) bool { return st.WireIDs[i].PeerID < st.WireIDs[j].PeerID })
	for id, rec := range c.mboxes {
		st.Mboxes = append(st.Mboxes, stateMbox{
			MboxID: id, Name: rec.reg.Name, Type: rec.reg.Type,
			Stateful: rec.reg.Stateful, ReadOnly: rec.reg.ReadOnly,
			StopAfter: rec.reg.StopAfter, InheritFrom: rec.reg.InheritFrom,
			FailMode: rec.reg.FailMode,
			SetType:  rec.set.mboxType,
		})
	}
	sort.Slice(st.Mboxes, func(i, j int) bool { return st.Mboxes[i].MboxID < st.Mboxes[j].MboxID })
	for typ, set := range c.sets {
		ss := stateSet{Type: typ, Index: set.index}
		ids := make([]int, 0, len(set.rules))
		for id := range set.rules {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			r := set.rules[id]
			sr := stateRule{ID: id, Regex: r.regex, Modifiers: r.mods}
			if r.content != "" {
				sr.Content = []byte(r.content)
			}
			for ref := range r.refs {
				sr.Refs = append(sr.Refs, ref)
			}
			sort.Strings(sr.Refs)
			ss.Rules = append(ss.Rules, sr)
		}
		st.Sets = append(st.Sets, ss)
	}
	sort.Slice(st.Sets, func(i, j int) bool { return st.Sets[i].Index < st.Sets[j].Index })
	for tag, members := range c.chains {
		st.Chains = append(st.Chains, stateChain{Tag: tag, Members: append([]string(nil), members...)})
	}
	sort.Slice(st.Chains, func(i, j int) bool { return st.Chains[i].Tag < st.Chains[j].Tag })
	for id, rec := range c.instances {
		st.Instances = append(st.Instances, stateInstance{ID: id, Tags: rec.chains, Dedicated: rec.dedicated})
	}
	sort.Slice(st.Instances, func(i, j int) bool { return st.Instances[i].ID < st.Instances[j].ID })
	c.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// LoadState restores a snapshot into an empty controller.
func (c *Controller) LoadState(r io.Reader) error {
	var st stateFile
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("%w: %v", ErrBadStateFile, err)
	}
	if st.Version != stateVersion {
		return fmt.Errorf("%w: version %d", ErrBadStateFile, st.Version)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.mboxes) != 0 || len(c.chains) != 0 || len(c.sets) != 0 {
		return ErrNotEmpty
	}
	// Sets first.
	setsByType := make(map[string]*setRecord, len(st.Sets))
	for _, ss := range st.Sets {
		set := &setRecord{index: ss.Index, mboxType: ss.Type, rules: make(map[int]ruleEntry)}
		for _, sr := range ss.Rules {
			if len(sr.Refs) == 0 {
				return fmt.Errorf("%w: rule %d of set %q has no refs", ErrBadStateFile, sr.ID, ss.Type)
			}
			entry := ruleEntry{content: string(sr.Content), regex: sr.Regex, mods: sr.Modifiers, refs: make(map[string]bool)}
			for _, ref := range sr.Refs {
				entry.refs[ref] = true
			}
			set.rules[sr.ID] = entry
		}
		setsByType[ss.Type] = set
		c.sets[ss.Type] = set
	}
	// Middleboxes reference their sets.
	for _, sm := range st.Mboxes {
		set, ok := setsByType[sm.SetType]
		if !ok {
			return fmt.Errorf("%w: middlebox %s references unknown set %q", ErrBadStateFile, sm.MboxID, sm.SetType)
		}
		c.mboxes[sm.MboxID] = &mboxRecord{
			reg: ctlRegister(sm),
			set: set,
		}
	}
	// Rebuild the global dedup table from set rules.
	for _, set := range c.sets {
		for id, rule := range set.rules {
			if rule.content == "" {
				continue
			}
			for ref := range rule.refs {
				c.refGlobal(rule.content, ref, id)
			}
		}
	}
	for _, sc := range st.Chains {
		for _, m := range sc.Members {
			if _, ok := c.mboxes[m]; !ok {
				return fmt.Errorf("%w: chain %d member %s unknown", ErrBadStateFile, sc.Tag, m)
			}
		}
		c.chains[sc.Tag] = append([]string(nil), sc.Members...)
	}
	for _, si := range st.Instances {
		// A freshly-restored instance gets a full lease: the controller
		// just restarted and has heard from nobody yet, which is not the
		// instance's fault.
		c.instances[si.ID] = &instanceRecord{
			id: si.ID, chains: si.Tags, dedicated: si.Dedicated,
			lastRenewal: c.now(), health: Healthy,
		}
	}
	c.nextTag = st.NextTag
	c.nextSet = st.NextSet
	if st.WireKey != 0 {
		c.wireKey = st.WireKey
		if st.NextWireID > 0 {
			c.nextWireID = st.NextWireID
		}
		for _, w := range st.WireIDs {
			c.wireIDs[w.PeerID] = w.Session
		}
	}
	// Restored state bypassed the mutation paths; resync the size gauges.
	c.met.mboxes.Set(int64(len(c.mboxes)))
	c.met.globalPatterns.Set(int64(len(c.global)))
	c.met.chains.Set(int64(len(c.chains)))
	c.met.instances.Set(int64(len(c.instances)))
	c.healthGaugesLocked()
	c.bumpLocked()
	return nil
}

func ctlRegister(sm stateMbox) ctlproto.Register {
	return ctlproto.Register{
		MboxID: sm.MboxID, Name: sm.Name, Type: sm.Type,
		Stateful: sm.Stateful, ReadOnly: sm.ReadOnly,
		StopAfter: sm.StopAfter, InheritFrom: sm.InheritFrom,
		FailMode: sm.FailMode,
	}
}

// SaveStateFile atomically persists the controller snapshot to path: the
// snapshot is written to a temp file in the same directory, fsynced,
// and renamed over the target, so a crash mid-save leaves either the
// old snapshot or the new one — never a torn file. The directory entry
// is fsynced too, making the rename itself durable.
func (c *Controller) SaveStateFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := c.SaveState(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// LoadStateFile restores a snapshot written by SaveStateFile. Leftover
// temp files from a crashed save are ignored (and never loaded: only
// the renamed target is read).
func (c *Controller) LoadStateFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.LoadState(f)
}
