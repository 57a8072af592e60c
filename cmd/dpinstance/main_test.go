package main

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/obs"
	"dpiservice/internal/packet"
	"dpiservice/internal/trace"
)

// refreshRig is a controller on loopback with one registered middlebox
// and chain, and an instance that has said hello and built its first
// engine, ready for exportAndRefresh.
type refreshRig struct {
	addr    string
	ctl     *controller.Controller
	srv     *controller.Server
	mbox    *controller.Client
	cl      *controller.Client
	tag     uint16
	init    ctlproto.InstanceInit
	first   *core.Engine
	eng     atomic.Pointer[core.Engine]
	version uint64
}

func newRefreshRig(t *testing.T) *refreshRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &refreshRig{addr: ln.Addr().String(), ctl: controller.New()}
	r.srv = controller.Serve(r.ctl, ln, t.Logf)
	t.Cleanup(func() { r.srv.Close() })

	ctx := context.Background()
	if r.mbox, err = controller.Dial(r.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.mbox.Close() })
	if _, err := r.mbox.Register(ctx, ctlproto.Register{MboxID: "ids-1", Type: "ids"}); err != nil {
		t.Fatal(err)
	}
	if err := r.mbox.AddPatterns(ctx, "ids-1", []ctlproto.PatternDef{{RuleID: 0, Content: []byte("attack-sig")}}); err != nil {
		t.Fatal(err)
	}
	defs, err := r.mbox.ReportChains(ctx, [][]string{{"ids-1"}})
	if err != nil {
		t.Fatal(err)
	}
	r.tag = defs[0].Tag

	if r.cl, err = controller.Dial(r.addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.cl.Close() })
	if r.init, err = helloCtx(r.cl, "dpi-1", false); err != nil {
		t.Fatal(err)
	}
	cfg, err := controller.ConfigFromInit(r.init)
	if err != nil {
		t.Fatal(err)
	}
	if r.first, err = core.NewEngine(cfg); err != nil {
		t.Fatal(err)
	}
	r.eng.Store(r.first)
	r.version = r.init.Version
	return r
}

// run starts exportAndRefresh at a 20 ms interval and returns the func
// that stops it and waits for it; the test's cleanup also calls it.
func (r *refreshRig) run(t *testing.T) (halt func()) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		exportAndRefresh(r.cl, "dpi-1", false, obs.NewRegistry(), &r.eng, trace.NewFlight("t", 16), &r.version, 20*time.Millisecond, stop)
	}()
	halt = sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(halt)
	return halt
}

// addPattern bumps the controller's configuration version.
func (r *refreshRig) addPattern(t *testing.T, id int, content string) {
	t.Helper()
	if err := r.mbox.AddPatterns(context.Background(), "ids-1", []ctlproto.PatternDef{{RuleID: id, Content: []byte(content)}}); err != nil {
		t.Fatal(err)
	}
}

// waitSwap waits up to 2 s for the engine pointer to move off old.
func (r *refreshRig) waitSwap(t *testing.T, old *core.Engine, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for r.eng.Load() == old {
		if time.Now().After(deadline) {
			t.Fatalf("engine not swapped within 2s of %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRefreshSurvivesControllerRestart takes the controller away for
// longer than the client's retry budget, brings the same controller back
// on the same address, and requires the refresh loop to pick up a
// pattern update made after the restart.
func TestRefreshSurvivesControllerRestart(t *testing.T) {
	r := newRefreshRig(t)
	halt := r.run(t)

	// The default retry policy gives up after about half a second;
	// stay down for twice that.
	time.Sleep(60 * time.Millisecond)
	r.srv.Close()
	time.Sleep(time.Second)
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	r.srv = controller.Serve(r.ctl, ln, t.Logf)

	r.addPattern(t, 1, "fresh-sig")
	r.waitSwap(t, r.first, "the controller's return")
	halt()
	if r.version <= r.init.Version {
		t.Errorf("version = %d, want > %d", r.version, r.init.Version)
	}
	rep, err := r.eng.Load().Inspect(r.tag, packet.FiveTuple{Protocol: packet.IPProtoTCP}, []byte("carries fresh-sig"))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.NumMatches() != 1 {
		t.Errorf("report = %+v, want the post-restart pattern", rep)
	}
}

// TestRefreshFetchesConfigOnlyOnVersionChange counts the hellos the
// refresh loop sends: none over many ticks while the configuration
// version stands still, exactly one after it moves. Telemetry still
// goes out on every tick.
func TestRefreshFetchesConfigOnlyOnVersionChange(t *testing.T) {
	reg := obs.NewRegistry()
	ctlproto.EnableMetrics(reg)
	t.Cleanup(func() { ctlproto.EnableMetrics(nil) })
	// Client and controller share the process, so each hello is counted
	// twice: written by one, read by the other.
	hellos := func() uint64 { return reg.Counter("ctlproto.msg."+string(ctlproto.TypeInstanceHello)).Value() / 2 }
	r := newRefreshRig(t)
	reports := func() uint64 { return r.ctl.Metrics().Counter("controller.telemetry_reports").Value() }
	waitReports := func(n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for reports() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d telemetry reports in 5s, want %d", reports(), n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	base := hellos()
	halt := r.run(t)

	waitReports(10)
	if n := hellos() - base; n != 0 {
		t.Fatalf("%d hellos over %d unchanged ticks, want 0", n, reports())
	}
	if r.eng.Load() != r.first {
		t.Fatal("engine swapped without a configuration change")
	}

	r.addPattern(t, 1, "fresh-sig")
	r.waitSwap(t, r.first, "the version bump")
	waitReports(reports() + 10)
	halt()
	if n := hellos() - base; n != 1 {
		t.Fatalf("%d hellos around one version bump, want 1", n)
	}
	if r.version <= r.init.Version {
		t.Errorf("version = %d, want > %d", r.version, r.init.Version)
	}
}
