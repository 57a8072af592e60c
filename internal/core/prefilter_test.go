package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dpiservice/internal/obs"
	"dpiservice/internal/patterns"
)

// longPatternConfig builds a two-middlebox instance whose patterns are
// all long enough (>= 7 bytes) for the prefilter to compile active
// (stride 4), unlike twoBoxConfig whose "evil" forces fallback.
func longPatternConfig() Config {
	return Config{
		Profiles: []Profile{
			{ID: 0, Name: "ids", Stateful: true, ReadOnly: true,
				Patterns: patterns.FromStrings("ids", []string{"attack-signature", "/etc/passwd", "User-Agent: evilbot"})},
			{ID: 1, Name: "av", Stateful: false,
				Patterns: patterns.FromStrings("av", []string{"malware-body", "X5O!P%@AP[4\\PZX54(P^)7CC)7"})},
		},
		Chains: map[uint16][]int{1: {0, 1}, 2: {1}},
	}
}

// prefilterTestPayloads builds a deterministic payload mix: mostly
// innocent HTTP-ish text, some payloads with injected patterns, one
// splitting a pattern across two packets (stateful path).
func prefilterTestPayloads(rng *rand.Rand) [][]byte {
	inject := []string{"attack-signature", "/etc/passwd", "malware-body", "User-Agent: evilbot"}
	var out [][]byte
	for i := 0; i < 60; i++ {
		n := 100 + rng.Intn(1200)
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(' ' + rng.Intn(95))
		}
		if i%5 == 0 {
			pat := inject[rng.Intn(len(inject))]
			pos := rng.Intn(n - len(pat))
			copy(p[pos:], pat)
		}
		out = append(out, p)
	}
	out = append(out, []byte("prefix carrying attack-si"), []byte("gnature completed here"))
	return out
}

// TestAutoPrefilterMatchesAutoFull runs identical traffic through an
// AutoFull engine and an AutoPrefilter engine and requires identical
// reports and counters — the engine-level version of the mpm
// equivalence guarantee.
func TestAutoPrefilterMatchesAutoFull(t *testing.T) {
	for name, mk := range map[string]func() Config{"active": longPatternConfig, "fallback": twoBoxConfig} {
		t.Run(name, func(t *testing.T) {
			cfgPf := mk()
			cfgPf.Kind = AutoPrefilter
			pf, err := NewEngine(cfgPf)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewEngine(mk())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			for i, payload := range prefilterTestPayloads(rng) {
				tag := uint16(1 + i%2)
				gotRep, err := pf.Inspect(tag, parallelFlowTuple(i%4), payload)
				if err != nil {
					t.Fatal(err)
				}
				wantRep, err := full.Inspect(tag, parallelFlowTuple(i%4), payload)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := flatten(gotRep), flatten(wantRep); !reflect.DeepEqual(got, want) {
					t.Fatalf("payload %d: report %v, want %v", i, got, want)
				}
			}
			if ps, fs := pf.Snapshot(), full.Snapshot(); ps != fs {
				t.Errorf("snapshots differ: prefilter %+v, full %+v", ps, fs)
			}
		})
	}
}

// TestPrefilterCounters checks the obs wiring: an active-prefilter
// engine advances probe counters on long innocent payloads and sets the
// enabled gauge; a fallback engine routes scans to plain counters.
func TestPrefilterCounters(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := longPatternConfig()
	cfg.Kind = AutoPrefilter
	cfg.Metrics = reg
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Gauge("core.prefilter_enabled").Value() != 1 {
		t.Error("core.prefilter_enabled gauge not set")
	}
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	if _, err := e.Inspect(2, testTuple, payload); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("core.prefilter_probes").Value(); v == 0 {
		t.Error("core.prefilter_probes did not advance")
	}
	// A payload shorter than the plain-scan threshold routes plain.
	if _, err := e.Inspect(2, testTuple, []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("core.prefilter_plain_scans").Value(); v == 0 {
		t.Error("core.prefilter_plain_scans did not advance")
	}

	regFb := obs.NewRegistry()
	cfgFb := twoBoxConfig() // "evil" is 4 bytes: compile-time fallback
	cfgFb.Kind = AutoPrefilter
	cfgFb.Metrics = regFb
	fb, err := NewEngine(cfgFb)
	if err != nil {
		t.Fatal(err)
	}
	if regFb.Gauge("core.prefilter_enabled").Value() != 0 {
		t.Error("fallback engine reported prefilter enabled")
	}
	if _, err := fb.Inspect(2, testTuple, payload); err != nil {
		t.Fatal(err)
	}
	if v := regFb.Counter("core.prefilter_plain_scans").Value(); v == 0 {
		t.Error("fallback engine did not count plain scans")
	}
}

// TestInspectBatchMixedChains drives stateful and stateless chains plus
// unknown tags through the lane scheduler: same-flow stateful packets
// next to each other in one run must neither deadlock nor reorder,
// unknown tags must error per item, and every report must match a serial
// reference.
func TestInspectBatchMixedChains(t *testing.T) {
	e, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngine(twoBoxConfig())
	if err != nil {
		t.Fatal(err)
	}
	var items []BatchItem
	for i := 0; i < 40; i++ {
		tag := uint16(1 + i%2) // chain 1 is stateful, chain 2 stateless
		if i%13 == 12 {
			tag = 999 // unknown
		}
		items = append(items, BatchItem{
			// One tuple per chain: every stateful packet finds its flow
			// checked out by the one two items ahead of it.
			Tag: tag, Tuple: parallelFlowTuple(int(tag)), Payload: []byte("an evil payload"),
		})
	}
	// Single worker so the stateful chain sees its packets in order and
	// the serial reference below is comparable.
	e.InspectBatch(items, 1)
	for i := range items {
		if items[i].Tag == 999 {
			if !errors.Is(items[i].Err, ErrUnknownChain) {
				t.Fatalf("item %d: err = %v, want unknown chain", i, items[i].Err)
			}
			continue
		}
		if items[i].Err != nil {
			t.Fatal(items[i].Err)
		}
		wantRep, err := ref.Inspect(items[i].Tag, items[i].Tuple, items[i].Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := flatten(items[i].Report), flatten(wantRep); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: report %v, want %v", i, got, want)
		}
	}
}
