package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"dpiservice/internal/ctlproto"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/traffic"
)

// The rule sets are configuration and fixed per workload; --seed drives
// the traffic. That keeps compile time and resident size comparable
// across seeds while every payload, match position and flow draw moves.
const (
	snortSeedA = 1
	snortSeedB = 2
	clamavSeed = 3
	snortRules = 2000
	// 8000 ClamAV-like patterns put a 12 MB hot set of DFA rows in the
	// host's shared last-level cache, and goodput then followed the
	// neighbours' cache pressure: spread across ten runs 26-30%. With 2000
	// the hot set fits the core's own L2 and the spread is 9%.
	clamavRules = 2000
)

// flowTableSize is the engine's default flow table (core.Config
// MaxFlows); small-pkt is built to overflow it.
const flowTableSize = 1 << 16

// mbox is one middlebox the workload registers with the controller.
type mbox struct {
	ID       string
	Type     string
	Stateful bool
	Set      *patterns.Set
	// SetIdx is the pattern-set index the controller assigned; match
	// report sections carry it. Filled at registration.
	SetIdx int
}

// registration is the body the middlebox registers with; mboxd sends the
// same one for the middlebox it consumes verdicts for.
func (m *mbox) registration() ctlproto.Register {
	return ctlproto.Register{MboxID: m.ID, Name: m.ID, Type: m.Type, Stateful: m.Stateful, ReadOnly: true}
}

// patternDefs renders the middlebox's rule set as the control protocol
// carries it.
func (m *mbox) patternDefs() []ctlproto.PatternDef {
	var defs []ctlproto.PatternDef
	for _, p := range m.Set.Patterns {
		defs = append(defs, ctlproto.PatternDef{RuleID: p.ID, Content: []byte(p.Content)})
	}
	for _, r := range m.Set.Regexes {
		defs = append(defs, ctlproto.PatternDef{RuleID: r.ID, Regex: r.Expr})
	}
	return defs
}

// pkt is one corpus packet: the chain it is tagged for, its flow and
// its L7 payload.
type pkt struct {
	Chain   int // index into workload.Chains
	Tuple   packet.FiveTuple
	Payload []byte
}

// workload is a fully generated input: middleboxes, chains and traffic.
type workload struct {
	workloadSpec
	Seed int64
	// PacedPPS is the open-loop rate: a constant chosen once at about
	// half the seed's saturation rate, never derived at run time.
	PacedPPS int
	// WarmPkts extends the warm-up until this many packets were sent, so
	// a flow table the workload overflows is full before slices start.
	WarmPkts int
	Mboxes   []*mbox
	Chains   [][]int // mbox indices per chain, in traversal order
	// Tags holds the controller-assigned chain tags. Filled at
	// registration.
	Tags   []uint16
	Corpus []pkt
	// FlowSeq, when set, replaces the corpus tuples: send i goes to flow
	// FlowSeq[i % len]. It is longer than the corpus so the set of flows
	// touched keeps growing past the flow table.
	FlowSeq []uint32
	Digest  string
}

// chainMembers lists each chain's middlebox IDs in traversal order.
func (w *workload) chainMembers() [][]string {
	chains := make([][]string, len(w.Chains))
	for i, members := range w.Chains {
		for _, mi := range members {
			chains[i] = append(chains[i], w.Mboxes[mi].ID)
		}
	}
	return chains
}

// at returns send number i of the workload's endless packet sequence.
// The first len(Corpus) sends are the verify pass.
func (w *workload) at(i int) (chain int, tuple packet.FiveTuple, payload []byte) {
	p := &w.Corpus[i%len(w.Corpus)]
	if w.FlowSeq != nil {
		return p.Chain, flowTuple(w.FlowSeq[i%len(w.FlowSeq)], p.Chain), p.Payload
	}
	return p.Chain, p.Tuple, p.Payload
}

// flowTuple maps a flow number to a distinct five-tuple.
func flowTuple(f uint32, chain int) packet.FiveTuple {
	return packet.FiveTuple{
		Src:      packet.IP4{10, byte(f >> 16), byte(f >> 8), byte(f)},
		Dst:      packet.IP4{192, 168, 0, byte(1 + chain)},
		SrcPort:  uint16(1024 + f%60000),
		DstPort:  80,
		Protocol: packet.IPProtoTCP,
	}
}

// probeTuple is the flow of the set-up probe packet; no corpus flow
// uses it.
var probeTuple = packet.FiveTuple{
	Src: packet.IP4{10, 255, 255, 254}, Dst: packet.IP4{192, 168, 0, 1},
	SrcPort: 65000, DstPort: 80, Protocol: packet.IPProtoTCP,
}

// The L7 firewall guards these paths against these query parameters.
var (
	fwPaths  = []string{"/admin/", "/cgi-bin/", "/scripts/", "/wp-content/", "/phpmyadmin/", "/manager/", "/console/", "/backup/"}
	fwParams = []string{"cmd", "exec", "file", "path"}
)

// fwRegexes builds the L7 firewall's rules: 8 paths x 4 parameters.
// Each expression yields two anchors (the path and "?param="), so the
// service's two-stage regex handling confirms only packets holding
// both.
func fwRegexes() *patterns.Set {
	s := &patterns.Set{Name: "l7fw"}
	for _, p := range fwPaths {
		for _, q := range fwParams {
			s.Regexes = append(s.Regexes, patterns.Regex{
				ID:   len(s.Regexes),
				Expr: fmt.Sprintf(`%s[a-z0-9]{2,12}\.(php|asp|cgi)\?%s=[a-z/.]{1,24}`, p, q),
			})
		}
	}
	return s
}

// fwSamples returns strings to plant for the firewall chain: requests
// the rules match, and near misses that carry both anchors (so the
// confirmation stage runs) but fail the expression.
func fwSamples(rng *rand.Rand) []string {
	exts := []string{"php", "asp", "cgi"}
	const lower = "abcdefghijklmnopqrstuvwxyz0123456789"
	var out []string
	for i := 0; i < 64; i++ {
		name := make([]byte, 2+rng.Intn(8))
		for j := range name {
			name[j] = lower[rng.Intn(len(lower))]
		}
		p, q := fwPaths[rng.Intn(len(fwPaths))], fwParams[rng.Intn(len(fwParams))]
		if i%2 == 0 {
			out = append(out, fmt.Sprintf("GET %s%s.%s?%s=/etc/passwd", p, name, exts[rng.Intn(len(exts))], q))
		} else {
			out = append(out, fmt.Sprintf("GET %s%s.html ?%s=", p, name, q))
		}
	}
	return out
}

// buildWorkload generates the named workload from seed. The same seed
// gives the same bytes; Digest proves it.
func buildWorkload(name string, seed int64) (*workload, error) {
	var spec workloadSpec
	for _, s := range workloadSpecs {
		if s.Name == name {
			spec = s
		}
	}
	if spec.Name == "" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	w := &workload{workloadSpec: spec, Seed: seed}
	ids := func(id string, stateful bool, rulesSeed int64) *mbox {
		return &mbox{ID: id, Type: id, Stateful: stateful, Set: patterns.SnortLike(snortRules, rulesSeed)}
	}
	gen := func(salt int64, mix traffic.Mix, match float64, inject []string, min, max int) *traffic.Generator {
		return traffic.NewGenerator(traffic.Config{
			Seed: seed*8 + salt, Mix: mix, MatchFraction: match,
			InjectPatterns: inject, MinPayload: min, MaxPayload: max,
		})
	}
	switch name {
	case "http-mtu":
		w.PacedPPS = 40000
		w.Mboxes = []*mbox{ids("ids-1", false, snortSeedA)}
		w.Chains = [][]int{{0}}
		g := gen(0, traffic.HTTPMix, 0.08, w.Mboxes[0].Set.Strings(), 200, 1400)
		for i := 0; i < 8192; i++ {
			w.Corpus = append(w.Corpus, pkt{Tuple: flowTuple(uint32(i%64), 0), Payload: g.Payload()})
		}
	case "small-pkt":
		w.PacedPPS = 80000
		w.WarmPkts = 400000
		w.Mboxes = []*mbox{ids("ids-1", true, snortSeedA)}
		w.Chains = [][]int{{0}}
		g := gen(0, traffic.HTTPMix, 0.02, w.Mboxes[0].Set.Strings(), 64, 64)
		for i := 0; i < 8192; i++ {
			w.Corpus = append(w.Corpus, pkt{Payload: g.Payload()})
		}
		// Zipf(s=1.1) over 131072 flows with the head flattened (v=4096)
		// so that about one packet in six addresses a flow ranked beyond
		// the 65536-entry flow table: the table fills within the warm-up
		// and evicts steadily afterwards.
		rng := rand.New(rand.NewSource(seed*8 + 1))
		z := rand.NewZipf(rng, 1.1, 4096, 2*flowTableSize-1)
		w.FlowSeq = make([]uint32, 1<<20)
		for i := range w.FlowSeq {
			w.FlowSeq[i] = uint32(z.Uint64())
		}
	case "attack-dense":
		w.PacedPPS = 3000
		w.Mboxes = []*mbox{ids("ids-1", false, snortSeedA)}
		w.Chains = [][]int{{0}}
		g := gen(0, traffic.AttackMix, 0, w.Mboxes[0].Set.Strings(), 1400, 1400)
		for i := 0; i < 4096; i++ {
			w.Corpus = append(w.Corpus, pkt{Tuple: flowTuple(uint32(i%64), 0), Payload: g.Payload()})
		}
	case "multi-tenant":
		w.PacedPPS = 20000
		av := &mbox{ID: "av-1", Type: "av-1", Set: patterns.ClamAVLike(clamavRules, clamavSeed)}
		fw := &mbox{ID: "fw-1", Type: "fw-1", Set: fwRegexes()}
		w.Mboxes = []*mbox{ids("ids-1", true, snortSeedA), av, ids("ids-2", true, snortSeedB), fw}
		w.Chains = [][]int{{0, 1}, {2, 3}}
		inject0 := append(w.Mboxes[0].Set.Strings(), av.Set.Strings()...)
		// Half of chain 2's planted strings are requests for the firewall,
		// so its confirmation stage sees a few hundred packets.
		inject1 := w.Mboxes[2].Set.Strings()
		for samples := fwSamples(rand.New(rand.NewSource(seed*8 + 2))); len(inject1) < 2*snortRules; {
			inject1 = append(inject1, samples...)
		}
		g := []*traffic.Generator{
			gen(0, traffic.CampusMix, 0.08, inject0, 200, 1400),
			gen(1, traffic.CampusMix, 0.08, inject1, 200, 1400),
		}
		for i := 0; i < 4096; i++ {
			f := uint32(i % 1024)
			chain := int(f % 2)
			w.Corpus = append(w.Corpus, pkt{Chain: chain, Tuple: flowTuple(f, chain), Payload: g[chain].Payload()})
		}
	}
	w.Digest = w.digest()
	return w, nil
}

// digest hashes everything the daemons will receive: rule sets, chains,
// payloads, tuples and the flow draw sequence.
func (w *workload) digest() string {
	h := sha256.New()
	var n [8]byte
	num := func(v uint64) {
		binary.BigEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, m := range w.Mboxes {
		str(m.ID)
		for _, p := range m.Set.Patterns {
			num(uint64(p.ID))
			str(p.Content)
		}
		for _, r := range m.Set.Regexes {
			num(uint64(r.ID))
			str(r.Expr)
		}
	}
	for _, c := range w.Chains {
		num(uint64(len(c)))
		for _, m := range c {
			num(uint64(m))
		}
	}
	for i := range w.Corpus {
		p := &w.Corpus[i]
		num(uint64(p.Chain))
		str(p.Tuple.String())
		num(uint64(len(p.Payload)))
		h.Write(p.Payload)
	}
	for _, f := range w.FlowSeq {
		num(uint64(f))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
