package controller

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"dpiservice/internal/ctlproto"
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
	literal := func(s *patterns.Set) []ctlproto.PatternDef {
		defs := make([]ctlproto.PatternDef, len(s.Patterns))
		for i, p := range s.Patterns {
			defs[i] = ctlproto.PatternDef{RuleID: p.ID, Content: []byte(p.Content)}
		}
		return defs
	}
	c := New()
	for _, m := range []struct {
		id       string
		stateful bool
		defs     []ctlproto.PatternDef
	}{
		{"ids-1", true, literal(patterns.SnortLike(2000, 1))},
		{"av-1", false, literal(patterns.ClamAVLike(2000, 3))},
		{"ids-2", true, literal(patterns.SnortLike(2000, 2))},
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
// encoding, pattern order or chain rendering moves the digest.
func TestInstanceInitGolden(t *testing.T) {
	const want = "8c8ea40c692dd487307806a8b66e16c21f2e2c1f3ed3fdb1614b90f199ab846c"
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
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("multi-tenant instance_init (%d bytes) digest %s, want %s", len(b), got, want)
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
