package main

import (
	"testing"
	"time"

	"dpiservice/internal/core"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/wire"
)

// plantedWorkload is a tiny two-chain workload with known patterns: a
// stateless IDS on chain 0, a stateful IDS plus a regex firewall on
// chain 1, and one pattern split across two packets of a stateful flow.
func plantedWorkload() *workload {
	w := &workload{workloadSpec: workloadSpec{Name: "planted"}, PacedPPS: 1000}
	w.Mboxes = []*mbox{
		{ID: "a", Type: "a", SetIdx: 0, Set: patterns.FromStrings("a", []string{"needle-one", "needle-two", "aaaa"})},
		{ID: "b", Type: "b", SetIdx: 1, Stateful: true, Set: patterns.FromStrings("b", []string{"split-across-packets", "whole"})},
		{ID: "c", Type: "c", SetIdx: 2, Set: &patterns.Set{Name: "c", Regexes: []patterns.Regex{{ID: 0, Expr: `/admin/[a-z]+\.php\?cmd=[a-z]+`}}}},
	}
	w.Chains = [][]int{{0}, {1, 2}}
	w.Tags = []uint16{1, 2}
	add := func(chain int, flow uint32, payload string) {
		w.Corpus = append(w.Corpus, pkt{Chain: chain, Tuple: flowTuple(flow, chain), Payload: []byte(payload)})
	}
	add(0, 1, "xx needle-one yy needle-two zz")
	add(0, 1, "nothing to see here")
	add(0, 2, "aaaaaaa run of a pattern")
	add(1, 3, "prefix whole then split-acr")
	add(1, 3, "oss-packets and a whole one")
	add(1, 4, "GET /admin/tool.php?cmd=ls HTTP/1.1")
	add(1, 4, "GET /admin/tool.html ?cmd= near miss")
	add(0, 5, "needle-on then needle-two")
	add(1, 6, "whole whole whole")
	add(0, 7, "plain")
	w.Digest = w.digest()
	return w
}

// plantedEngine builds the engine an instance would build for w.
func plantedEngine(t *testing.T, w *workload) *core.Engine {
	t.Helper()
	cfg := core.Config{Chains: map[uint16][]int{}}
	for _, m := range w.Mboxes {
		cfg.Profiles = append(cfg.Profiles, core.Profile{ID: m.SetIdx, Name: m.ID, Stateful: m.Stateful, ReadOnly: true, Patterns: m.Set})
	}
	for c, members := range w.Chains {
		for _, mi := range members {
			cfg.Chains[w.Tags[c]] = append(cfg.Chains[w.Tags[c]], w.Mboxes[mi].SetIdx)
		}
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestOracleAgreesWithEngineAndCatchesCorruption(t *testing.T) {
	w := plantedWorkload()
	o, err := newOracle(w)
	if err != nil {
		t.Fatal(err)
	}
	// The planted facts themselves, independent of the engine.
	wantCounts := []int{2, 0, 4, 1, 2, 1, 0, 1, 3, 0}
	for i, n := range wantCounts {
		if got := len(o.expect[i].all); got != n {
			t.Errorf("packet %d: oracle expects %d matches, planted %d: %+v", i, got, n, o.expect[i].all)
		}
	}
	// The split pattern is reported with the second packet at its stream
	// offset: 27 bytes of packet one, then 11 bytes into packet two.
	found := false
	for _, m := range o.expect[4].all {
		if m.Set == 1 && m.Pattern == 0 && m.Pos == 27+11 {
			found = true
		}
	}
	if !found {
		t.Errorf("cross-packet match missing or misplaced: %+v", o.expect[4].all)
	}

	eng := plantedEngine(t, w)
	reports := make([][]byte, len(w.Corpus))
	for i := range w.Corpus {
		chain, tuple, payload := w.at(i)
		rep, err := eng.Inspect(w.Tags[chain], tuple, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			reports[i] = rep.AppendEncoded(nil)
		}
		if !o.checkExact(i, reports[i]) {
			t.Errorf("packet %d: engine report rejected by the oracle", i)
		}
	}
	// A repeat of a stateless-chain packet must be byte-identical.
	if !o.checkRepeat(0, reports[0]) || o.checkRepeat(0, reports[2]) {
		t.Error("stateless repeat check does not compare report bytes")
	}
	// Corruptions: another pattern ID, a dropped entry, garbage, a
	// report where none is due, none where one is due.
	bad := append([]byte(nil), reports[0]...)
	bad[len(bad)-3] ^= 1 // low byte of the last entry's pattern ID
	for name, rep := range map[string][]byte{
		"wrong pattern": bad, "truncated": reports[0][:len(reports[0])-4], "garbage": []byte("DRx"), "missing": nil,
	} {
		if o.checkExact(0, rep) {
			t.Errorf("%s report for packet 0 accepted", name)
		}
	}
	if o.checkExact(1, reports[0]) {
		t.Error("report accepted for a packet without matches")
	}
	// Stateful chain, timed phases: in-packet matches are required whatever
	// the flow's history.
	if !o.checkRepeat(8, reports[8]) || o.checkRepeat(8, nil) || o.checkRepeat(5, reports[8]) {
		t.Error("stateful repeat check does not demand the in-packet matches")
	}
}

// TestLoadgenCountsFailures drives the load generator against an
// in-process server that corrupts one report and never answers one
// packet: both must show in the tally.
func TestLoadgenCountsFailures(t *testing.T) {
	w := plantedWorkload()
	for _, sabotage := range []bool{false, true} {
		o, err := newOracle(w)
		if err != nil {
			t.Fatal(err)
		}
		eng := plantedEngine(t, w)
		key := wire.NewClusterKey()
		str, err := wire.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.NewServer(str, key, wire.Config{}, nil)
		n := 0
		srv.OnData(func(s *wire.Session, seq uint32, tag uint16, tuple packet.FiveTuple, payload []byte) {
			n++
			rep, err := eng.Inspect(tag, tuple, payload)
			if err != nil {
				t.Error(err)
			}
			var enc []byte
			if rep != nil {
				enc = rep.AppendEncoded(nil)
			}
			if sabotage && n == 1 {
				enc[len(enc)-3] ^= 1
			}
			if sabotage && n == 6 {
				return // the result is never sent
			}
			if err := s.SendResult(seq, enc); err != nil {
				t.Error(err)
			}
		})
		srv.Start()
		ctr, err := wire.DialUDP(str.LocalAddr().AP.String())
		if err != nil {
			t.Fatal(err)
		}
		conn := wire.NewConn(ctr, wire.IssueToken(key, 1), "test", wire.Config{}, nil)
		g := newLoadgen(conn, w, checker(o))
		g.timeout = 300 * time.Millisecond
		if err := conn.Start(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := g.sendAll(len(w.Corpus)); err != nil {
			t.Fatal(err)
		}
		a := g.snapshot()
		tl := tally{Attempted: int64(g.sent), Missing: g.lost, Mismatched: a.mismatch}
		conn.Close()
		srv.Close()
		if !sabotage {
			if tl.failed() != 0 || tl.failPct() != 0 {
				t.Errorf("clean run: tally %+v", tl)
			}
			continue
		}
		if tl.Missing != 1 || tl.Mismatched != 1 || tl.failPct() != 20 {
			t.Errorf("sabotaged run: tally %+v fail_pct %.1f, want 1 missing, 1 mismatched, 20%%", tl, tl.failPct())
		}
	}
}
