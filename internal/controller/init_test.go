package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
)

// multiTenant registers the benchmark's multi-tenant deployment: two
// stateful Snort-like IDSes (2 000 rules each, seeds 1 and 2), a
// ClamAV-like AV (2 000 signatures, seed 3) and an L7 firewall of 32
// regexes, on the chains {ids-1, av-1} and {ids-2, fw-1}.
func multiTenant(tb testing.TB) *Controller {
	tb.Helper()
	var fw []ctlproto.PatternDef
	for _, p := range []string{"/admin/", "/cgi-bin/", "/scripts/", "/wp-content/", "/phpmyadmin/", "/manager/", "/console/", "/backup/"} {
		for _, q := range []string{"cmd", "exec", "file", "path"} {
			fw = append(fw, ctlproto.PatternDef{RuleID: len(fw),
				Regex: fmt.Sprintf(`%s[a-z0-9]{2,12}\.(php|asp|cgi)\?%s=[a-z/.]{1,24}`, p, q)})
		}
	}
	c := New()
	for _, m := range []struct {
		id       string
		stateful bool
		defs     []ctlproto.PatternDef
	}{
		{"ids-1", true, PatternDefs(patterns.SnortLike(2000, 1))},
		{"av-1", false, PatternDefs(patterns.ClamAVLike(2000, 3))},
		{"ids-2", true, PatternDefs(patterns.SnortLike(2000, 2))},
		{"fw-1", false, fw},
	} {
		if _, err := c.Register(ctlproto.Register{MboxID: m.id, Name: m.id, Type: m.id, Stateful: m.stateful}); err != nil {
			tb.Fatal(err)
		}
		if err := c.AddPatterns(m.id, m.defs); err != nil {
			tb.Fatal(err)
		}
	}
	for _, ch := range [][]string{{"ids-1", "av-1"}, {"ids-2", "fw-1"}} {
		if _, err := c.DefineChain(ch); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// TestInstanceInitGolden pins the instance_init encoding of the
// multi-tenant configuration (the random cluster key and the token
// minted from it zeroed): any change in field order, integer or string
// encoding, pattern order or chain rendering moves the digest. None of
// its patterns has a modifier, so each profile's modifier list is one
// byte: format 1, without the lists, was 121 133 bytes.
func TestInstanceInitGolden(t *testing.T) {
	const want, wantLen = "8013c56c09eab3f0019abf8eeb41abf26e775218cde81e45a12e2c1a062bc9e7", 121137
	init, err := multiTenant(t).InstanceInitMsg("dpi-1", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	init.WireKey, init.WireToken = 0, 0
	b := ctlproto.AppendInstanceInit(nil, &init)
	var patterns int
	for _, p := range init.Profiles {
		patterns += len(p.Patterns)
	}
	if len(init.Profiles) != 4 || patterns != 6032 || len(init.Chains) != 2 {
		t.Errorf("%d profiles, %d patterns, %d chains; want 4, 6032, 2", len(init.Profiles), patterns, len(init.Chains))
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != want || len(b) != wantLen {
		t.Errorf("multi-tenant instance_init (%d bytes) digest %s, want %d bytes, %s", len(b), got, wantLen, want)
	}
}

// TestInstanceInitSectionCache: the profile and chain section is
// rendered once per configuration version and chain selection; the head
// is per instance.
func TestInstanceInitSectionCache(t *testing.T) {
	c := multiTenant(t)
	h1, s1, err := c.initBody("dpi-1", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	h2, s2, err := c.initBody("dpi-2", nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if &s1[0] != &s2[0] {
		t.Error("second instance at the same version got a fresh section")
	}
	if reflect.DeepEqual(h1, h2) {
		t.Error("two instances got the same head")
	}
	_, s3, err := c.initBody("dpi-3", []uint16{2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3) >= len(s1) {
		t.Errorf("section for chain 2 alone is %d bytes, for both %d", len(s3), len(s1))
	}
	init, err := ctlproto.DecodeInstanceInit(append(h2, s2...))
	if err != nil {
		t.Fatal(err)
	}
	if init.InstanceID != "dpi-2" || !init.Compact || init.Version != c.Version() {
		t.Errorf("head: id %q compact %v version %d", init.InstanceID, init.Compact, init.Version)
	}

	// A change moves the version and the next hello renders afresh.
	if err := c.AddPatterns("ids-1", []ctlproto.PatternDef{{RuleID: 4000, Content: []byte("fresh-pattern")}}); err != nil {
		t.Fatal(err)
	}
	_, s4, err := c.initBody("dpi-1", nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two bytes of rule ID, one of length, the content.
	if &s4[0] == &s1[0] || len(s4) != len(s1)+2+1+len("fresh-pattern") {
		t.Errorf("section after an update: %d bytes (before %d), shared %v", len(s4), len(s1), &s4[0] == &s1[0])
	}
}

// TestModifiersReachTheInstance: Snort content modifiers registered the
// way mboxd registers a -rules file — parsed, rendered by PatternDefs
// and carried as JSON on the control connection — survive the
// controller and the instance_init bytes into the instance's verdicts.
func TestModifiersReachTheInstance(t *testing.T) {
	rules, err := patterns.ParseSnortRules(strings.NewReader(
		`alert tcp any any -> any 80 (msg:"a"; content:"ABCD"; nocase; depth:8; sid:1;)` + "\n" +
			`alert tcp any any -> any 80 (msg:"b"; content:"WXYZ"; offset:4; sid:2;)` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(PatternDefs(patterns.SetFromSnortRules("ids-1", rules, 4)))
	if err != nil {
		t.Fatal(err)
	}
	var defs []ctlproto.PatternDef
	if err := json.Unmarshal(wire, &defs); err != nil {
		t.Fatal(err)
	}
	c := New()
	if _, err := c.Register(ctlproto.Register{MboxID: "ids-1", Name: "ids-1", Type: "ids"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPatterns("ids-1", defs); err != nil {
		t.Fatal(err)
	}
	// A modifier is part of the rule: redefining it differently is a
	// conflict, and a regex takes none.
	redef := defs[0]
	redef.NoCase = false
	for _, bad := range []ctlproto.PatternDef{redef, {RuleID: 9, Regex: "a+b", Modifiers: ctlproto.Modifiers{Depth: 4}}} {
		if err := c.AddPatterns("ids-1", []ctlproto.PatternDef{bad}); !errors.Is(err, ErrRuleConflict) {
			t.Errorf("AddPatterns(%+v): err = %v, want ErrRuleConflict", bad, err)
		}
	}
	tag, err := c.DefineChain([]string{"ids-1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, compact := range []bool{false, true} {
		head, section, err := c.initBody("dpi-1", nil, compact)
		if err != nil {
			t.Fatal(err)
		}
		init, err := ctlproto.DecodeInstanceInit(append(head, section...))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ConfigFromInit(init)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for payload, want := range map[string][]uint16{
			"abcd and more":    {0},    // nocase
			"xxABCDxx":         {0},    // ends within depth 8
			"xxxxxABCD":        nil,    // ends past it
			"WXYZ at the head": nil,    // begins before offset 4
			"....WXYZ":         {1},    // begins at it
			"AbCd..WXYZ":       {0, 1}, // both
		} {
			rep, err := e.Inspect(tag, packet.FiveTuple{SrcPort: 1, DstPort: 80}, []byte(payload))
			if err != nil {
				t.Fatal(err)
			}
			var got []uint16
			if rep != nil {
				for _, en := range rep.Sections[0].Entries {
					got = append(got, en.Pattern)
				}
			}
			if slices.Sort(got); !slices.Equal(got, want) {
				t.Errorf("compact %v, %q: patterns %v, want %v", compact, payload, got, want)
			}
		}
	}
}
