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

// TestRefreshSurvivesControllerRestart takes the controller away for
// longer than the client's retry budget, brings the same controller back
// on the same address, and requires the refresh loop to pick up a
// pattern update made after the restart.
func TestRefreshSurvivesControllerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ctl := controller.New()
	srv := controller.Serve(ctl, ln, t.Logf)

	ctx := context.Background()
	mbox, err := controller.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer mbox.Close()
	if _, err := mbox.Register(ctx, ctlproto.Register{MboxID: "ids-1", Type: "ids"}); err != nil {
		t.Fatal(err)
	}
	if err := mbox.AddPatterns(ctx, "ids-1", []ctlproto.PatternDef{{RuleID: 0, Content: []byte("attack-sig")}}); err != nil {
		t.Fatal(err)
	}
	defs, err := mbox.ReportChains(ctx, [][]string{{"ids-1"}})
	if err != nil {
		t.Fatal(err)
	}
	tag := defs[0].Tag

	cl, err := controller.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	init, err := helloCtx(cl, "dpi-1", false)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := controller.ConfigFromInit(init)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng atomic.Pointer[core.Engine]
	eng.Store(first)
	version := init.Version

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		exportAndRefresh(cl, "dpi-1", false, obs.NewRegistry(), &eng, trace.NewFlight("t", 16), &version, 20*time.Millisecond, stop)
	}()
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()

	// The default retry policy gives up after about half a second;
	// stay down for twice that.
	time.Sleep(60 * time.Millisecond)
	srv.Close()
	time.Sleep(time.Second)
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv = controller.Serve(ctl, ln, t.Logf)
	defer srv.Close()

	if err := mbox.AddPatterns(ctx, "ids-1", []ctlproto.PatternDef{{RuleID: 1, Content: []byte("fresh-sig")}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for eng.Load() == first {
		if time.Now().After(deadline) {
			t.Fatal("engine not swapped within 2s of the controller's return")
		}
		time.Sleep(10 * time.Millisecond)
	}
	halt()
	if version <= init.Version {
		t.Errorf("version = %d, want > %d", version, init.Version)
	}
	rep, err := eng.Load().Inspect(tag, packet.FiveTuple{Protocol: packet.IPProtoTCP}, []byte("carries fresh-sig"))
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || rep.NumMatches() != 1 {
		t.Errorf("report = %+v, want the post-restart pattern", rep)
	}
}
