package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// Fixtures under testdata/src declare their expected diagnostics inline:
// a comment containing `want "regex"` on some line expects exactly one
// diagnostic on that line whose message matches the regex. A fixture
// with no want comments (testdata/src/clean) must produce none.

var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type want struct {
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants scans every comment of the loaded fixture for want
// expectations, keyed by base filename.
func collectWants(t *testing.T, m *Module) map[string][]*want {
	t.Helper()
	wants := make(map[string][]*want)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					pos := m.Fset.Position(c.Pos())
					name := filepath.Base(pos.Filename)
					for _, sub := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(sub[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", name, pos.Line, sub[1], err)
						}
						wants[name] = append(wants[name], &want{line: pos.Line, pattern: re})
					}
				}
			}
		}
	}
	return wants
}

func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if e.Name() == "escape" {
			continue // its wants come from CheckEscape: see TestEscapeFixture
		}
		t.Run(e.Name(), func(t *testing.T) {
			m, err := LoadDir(filepath.Join("testdata", "src", e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			wants := collectWants(t, m)
			for _, d := range Run(m) {
				name := filepath.Base(d.Pos.Filename)
				found := false
				for _, w := range wants[name] {
					if !w.matched && w.line == d.Pos.Line && w.pattern.MatchString(d.Msg) {
						w.matched = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for name, ws := range wants {
				for _, w := range ws {
					if !w.matched {
						t.Errorf("%s:%d: no diagnostic matching %q", name, w.line, w.pattern)
					}
				}
			}
		})
	}
}

// TestEscapeFixture drives CheckEscape over its golden fixture. The
// fixture lives under testdata like the others but must be loaded as a
// real module package (CheckEscape shells out to `go build`, which
// needs an import path, not a bare directory).
func TestEscapeFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the fixture package")
	}
	m, err := LoadModule(filepath.Join("..", ".."), "./internal/lint/testdata/src/escape")
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, m)
	diags, err := CheckEscape(m, Annotate(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		name := filepath.Base(d.Pos.Filename)
		found := false
		for _, w := range wants[name] {
			if !w.matched && w.line == d.Pos.Line && w.pattern.MatchString(d.Msg) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for name, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", name, w.line, w.pattern)
			}
		}
	}
}

// TestModuleEscape runs the allocation proof over the repository: no
// //dpi:hotpath-reachable function may heap-allocate without a waiver.
// Gated behind DPILINT_ESCAPE because the compiler's verdicts (and
// inlining decisions that shift their positions) vary across toolchain
// versions; the CI escape job is the canonical runner.
func TestModuleEscape(t *testing.T) {
	if os.Getenv("DPILINT_ESCAPE") == "" {
		t.Skip("set DPILINT_ESCAPE=1 (escape verdicts are toolchain-dependent; CI runs this in its own job)")
	}
	if testing.Short() {
		t.Skip("recompiles hotpath packages with -gcflags=-m")
	}
	m, err := LoadModule(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := CheckEscape(m, Annotate(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("module not allocation-clean: %s", d)
	}
}

// TestModule runs dpilint over the repository itself: the tree must be
// clean, and the annotations the checks hang off must actually be
// present on the per-packet hot path.
func TestModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m, err := LoadModule(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(m) {
		t.Errorf("module not clean: %s", d)
	}

	ann := collectAnnotations(m)
	hot := make(map[string]bool)
	for fn, fa := range ann.funcs {
		if fa.hotpath {
			hot[funcName(fn)] = true
		}
	}
	for _, name := range []string{
		"core.Engine.Inspect",
		"core.Engine.inspectOne",
		"core.Engine.inspectRun",
		"core.Engine.prepare",
		"core.Engine.finish",
		"core.flowShard.acquire",
		"core.flowShard.admit",
		"core.flowShard.release",
		"core.flowBucket.find",
		"core.scratch.emit",
		"mpm.ACFull.Scan",
		"mpm.ACFull.Advance",
		"mpm.ACFull.ScanLanes",
		"mpm.ACFull.solo",
		"mpm.ACFull.leave",
		"mpm.ACFull.coldStep",
		"mpm.step4",
		"mpm.step8",
	} {
		if !hot[name] {
			t.Errorf("expected //dpi:hotpath on %s", name)
		}
	}

	// The control-plane RPC surface carries //dpi:ctx — the failover
	// machinery relies on every blocking call being abortable.
	ctxed := make(map[string]bool)
	for fn, fa := range ann.funcs {
		if fa.ctx {
			ctxed[funcName(fn)] = true
		}
	}
	for _, name := range []string{
		"controller.Client.Register",
		"controller.Client.Deregister",
		"controller.Client.AddPatterns",
		"controller.Client.RemovePatterns",
		"controller.Client.ReportChains",
		"controller.Client.InstanceHello",
		"controller.Client.SendTelemetry",
		"controller.Client.RenewLease",
		"ctlproto.WriteMsgCtx",
		"ctlproto.ReadMsgCtx",
		"ctlproto.WriteDataPacketCtx",
		"ctlproto.ReadDataPacketCtx",
		"ctlproto.WriteResultFrameCtx",
		"ctlproto.ReadResultFrameCtx",
	} {
		if !ctxed[name] {
			t.Errorf("expected //dpi:ctx on %s", name)
		}
	}

	// The declared lock hierarchy mirrors the acquisition edges that
	// actually exist across packages; losing a declaration silently
	// un-pins that ordering.
	rules := make(map[string]bool)
	for _, r := range ann.lockorder {
		rules[r.before+" < "+r.after] = true
	}
	for _, rule := range []string{
		"middlebox.DPINode.mu < reassembly.Assembler.mu",
		"middlebox.DPINode.mu < core.flowShard.mu",
		"middlebox.DPINode.mu < netsim.Host.mu",
		"middlebox.DPINode.mu < obs.Registry.mu",
		"netsim.Network.mu < netsim.Host.mu",
		"netsim.Network.mu < openflow.Switch.mu",
		"sdn.TSA.mu < openflow.Switch.mu",
	} {
		if !rules[rule] {
			t.Errorf("expected //dpi:lockorder(%s) declaration", rule)
		}
	}
}
