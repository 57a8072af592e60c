package controller

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/packet"
)

// populatedController builds a controller with two middleboxes (one
// regex rule, one binary pattern, one shared pattern, one with content
// modifiers) and a chain.
func populatedController(t *testing.T) (*Controller, uint16) {
	t.Helper()
	c := New()
	if _, err := c.Register(ctlproto.Register{MboxID: "ids-1", Type: "ids", Stateful: true, ReadOnly: true, StopAfter: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(reg("av-1", "av")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPatterns("ids-1", []ctlproto.PatternDef{
		{RuleID: 0, Content: []byte("attack-sig")},
		{RuleID: 1, Content: []byte{0x00, 0xff, 0x13, 0x37, 0xde, 0xad}},
		{RuleID: 2, Regex: `evil\d+marker`},
		{RuleID: 3, Content: []byte("shared-bytes")},
		{RuleID: 4, Content: []byte("get /"), Modifiers: ctlproto.Modifiers{NoCase: true, Offset: 1, Depth: 6}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddPatterns("av-1", []ctlproto.PatternDef{
		{RuleID: 0, Content: []byte("shared-bytes")},
	}); err != nil {
		t.Fatal(err)
	}
	tag, err := c.DefineChain([]string{"ids-1", "av-1"})
	if err != nil {
		t.Fatal(err)
	}
	c.AddInstance("dpi-1", []uint16{tag}, false)
	c.AddInstance("ded-1", nil, true)
	return c, tag
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig, tag := populatedController(t)
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	restored := New()
	if err := restored.LoadState(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Identical instance configurations (the operational essence).
	cfgA, err := orig.InstanceConfig(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := restored.InstanceConfig(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfgA, cfgB) {
		t.Errorf("configs differ:\n%+v\n%+v", cfgA, cfgB)
	}
	// Engines behave identically on binary payloads.
	eA, err := core.NewEngine(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	eB, err := core.NewEngine(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(" GeT /attack-sig \x00\xff\x13\x37\xde\xad evil42marker shared-bytes")
	tuple := packet.FiveTuple{Protocol: packet.IPProtoTCP}
	rA, err := eA.Inspect(tag, tuple, payload)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := eB.Inspect(tag, tuple, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rA, rB) {
		t.Errorf("reports differ: %+v vs %+v", rA, rB)
	}
	// Global refcounting survived: shared pattern counted once.
	if orig.GlobalPatternCount() != restored.GlobalPatternCount() {
		t.Errorf("global patterns %d vs %d", orig.GlobalPatternCount(), restored.GlobalPatternCount())
	}
	// Tag allocation continues where it left off.
	t2a, err := orig.DefineChain([]string{"av-1"})
	if err != nil {
		t.Fatal(err)
	}
	t2b, err := restored.DefineChain([]string{"av-1"})
	if err != nil {
		t.Fatal(err)
	}
	if t2a != t2b {
		t.Errorf("next tag diverged: %d vs %d", t2a, t2b)
	}
	// Instances restored.
	if got := restored.Instances(true); !reflect.DeepEqual(got, []string{"ded-1"}) {
		t.Errorf("dedicated instances = %v", got)
	}
	// Refcount semantics still hold post-restore.
	if err := restored.RemovePatterns("ids-1", []int{3}); err != nil {
		t.Fatal(err)
	}
	cfg, err := restored.InstanceConfig(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	// av's copy of shared-bytes must survive.
	found := false
	for _, p := range cfg.Profiles {
		if p.Name == "av" && len(p.Patterns.Patterns) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("shared pattern lost after restore+remove: %+v", cfg.Profiles)
	}
}

func TestLoadStateRejections(t *testing.T) {
	orig, _ := populatedController(t)
	var buf bytes.Buffer
	if err := orig.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Non-empty target.
	if err := orig.LoadState(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrNotEmpty) {
		t.Errorf("err = %v, want ErrNotEmpty", err)
	}
	// Bad JSON.
	if err := New().LoadState(strings.NewReader("{nope")); !errors.Is(err, ErrBadStateFile) {
		t.Errorf("bad json err = %v", err)
	}
	// Wrong version.
	if err := New().LoadState(strings.NewReader(`{"version": 99}`)); !errors.Is(err, ErrBadStateFile) {
		t.Errorf("bad version err = %v", err)
	}
	// Chain referencing an unknown middlebox.
	bad := strings.Replace(buf.String(), `"ids-1"`, `"ghost"`, 1)
	if err := New().LoadState(strings.NewReader(bad)); err == nil {
		t.Error("corrupted state accepted")
	}
}
