package main

import (
	"math"
	"testing"
)

func TestWorkloadsAreDeterministic(t *testing.T) {
	for _, spec := range workloadSpecs {
		a, err := buildWorkload(spec.Name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(spec.Name, 7)
		c, _ := buildWorkload(spec.Name, 8)
		if a.Digest != b.Digest {
			t.Errorf("%s: seed 7 twice gave digests %s and %s", spec.Name, a.Digest, b.Digest)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", spec.Name)
		}
		if a.Why == "" || len(a.Why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", spec.Name, len(a.Why))
		}
	}
	if _, err := buildWorkload("no-such", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestWorkloadProperties asserts what each workload's "why" claims about
// its inputs: payload sizes, flow population, chains and the share of
// packets that report matches.
func TestWorkloadProperties(t *testing.T) {
	type want struct {
		minSize, maxSize int
		flows            int // distinct flows in the corpus; 0 when a flow sequence decides
		chains, mboxes   int
		stateful         []bool
		match, tol       float64 // share of corpus packets with a report
		packets          int
	}
	wants := map[string]want{
		"http-mtu":     {200, 1400, 64, 1, 1, []bool{false}, 0.08, 0.02, 8192},
		"small-pkt":    {64, 64, 0, 1, 1, []bool{true}, 0.02, 0.01, 8192},
		"attack-dense": {1400, 1400, 64, 1, 1, []bool{false}, 1, 0, 4096},
		"multi-tenant": {200, 1400, 1024, 2, 4, []bool{true, false, true, false}, 0.08, 0.02, 4096},
	}
	for _, spec := range workloadSpecs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Name == "multi-tenant" {
				t.Skip("the naive oracle over 12000 patterns takes seconds")
			}
			wl, err := buildWorkload(spec.Name, 1)
			if err != nil {
				t.Fatal(err)
			}
			wt := wants[spec.Name]
			if len(wl.Corpus) != wt.packets || len(wl.Chains) != wt.chains || len(wl.Mboxes) != wt.mboxes || wl.PacedPPS <= 0 {
				t.Fatalf("shape: %d packets, %d chains, %d middleboxes, %d pkt/s", len(wl.Corpus), len(wl.Chains), len(wl.Mboxes), wl.PacedPPS)
			}
			for i, m := range wl.Mboxes {
				if m.Stateful != wt.stateful[i] {
					t.Errorf("middlebox %s stateful = %v", m.ID, m.Stateful)
				}
			}
			flows := make(map[string]int)
			perChain := make([]int, len(wl.Chains))
			for i := range wl.Corpus {
				p := &wl.Corpus[i]
				if n := len(p.Payload); n < wt.minSize || n > wt.maxSize {
					t.Fatalf("packet %d has %d bytes, outside %d-%d", i, n, wt.minSize, wt.maxSize)
				}
				flows[p.Tuple.String()] = p.Chain
				perChain[p.Chain]++
			}
			if wt.flows > 0 && len(flows) != wt.flows {
				t.Errorf("%d distinct flows, want %d", len(flows), wt.flows)
			}
			for c, n := range perChain {
				if n != len(wl.Corpus)/len(wl.Chains) {
					t.Errorf("chain %d carries %d of %d packets", c, n, len(wl.Corpus))
				}
			}
			if spec.Name == "small-pkt" {
				// The flow population must overflow the engine's table, and
				// keep a skewed head.
				seen := make(map[uint32]int)
				beyond := 0
				for _, f := range wl.FlowSeq {
					seen[f]++
					if f >= flowTableSize {
						beyond++
					}
				}
				if len(seen) <= flowTableSize {
					t.Errorf("flow sequence touches %d flows; the table holds %d", len(seen), flowTableSize)
				}
				if share := float64(beyond) / float64(len(wl.FlowSeq)); share < 0.10 || share > 0.25 {
					t.Errorf("%.1f%% of packets address flows ranked beyond the table, want 10-25%%", 100*share)
				}
				if mean := len(wl.FlowSeq) / len(seen); seen[0] < 5*mean {
					t.Errorf("head flow drawn %d times against a mean of %d: no skew", seen[0], mean)
				}
			}
			// Registration assigns set indices in order; the oracle needs them.
			for i, m := range wl.Mboxes {
				m.SetIdx = i
			}
			o, err := newOracle(wl)
			if err != nil {
				t.Fatal(err)
			}
			if got := o.matchFraction(); math.Abs(got-wt.match) > wt.tol {
				t.Errorf("%.1f%% of packets report matches, want %.0f%% +- %.0f", 100*got, 100*wt.match, 100*wt.tol)
			}
		})
	}
}
