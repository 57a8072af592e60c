// Package system wires the full DPI-as-a-service stack together — DPI
// controller, SDN switch and TSA, DPI service instances, and
// result-consuming middleboxes on the virtual network — and provides
// the topology builders shared by the integration tests, the examples
// and the benchmark harness. It corresponds to the complete prototype
// of Section 6.1.
package system

import (
	"fmt"

	"dpiservice/internal/controller"
	"dpiservice/internal/core"
	"dpiservice/internal/ctlproto"
	"dpiservice/internal/middlebox"
	"dpiservice/internal/netsim"
	"dpiservice/internal/openflow"
	"dpiservice/internal/packet"
	"dpiservice/internal/patterns"
	"dpiservice/internal/sdn"
)

// Testbed is the assembled experimental topology: the paper's basic
// setup of user hosts, middlebox hosts and DPI service instance hosts
// around a single switch, with the TSA steering traffic (Section 6.1).
type Testbed struct {
	Net    *netsim.Network
	Switch *openflow.Switch
	TSA    *sdn.TSA
	DPICtl *controller.Controller

	Src, Dst *netsim.Host
	nextIP   byte
}

// NewTestbed builds the empty fabric with src and dst user hosts.
func NewTestbed() (*Testbed, error) {
	tb := &Testbed{
		Net:    netsim.NewNetwork(),
		Switch: openflow.NewSwitch("s1"),
		DPICtl: controller.New(),
		nextIP: 10,
	}
	tb.TSA = sdn.NewTSA(tb.Switch, tb.DPICtl)
	if err := tb.Net.AddNode(tb.Switch); err != nil {
		return nil, err
	}
	var err error
	if tb.Src, err = tb.AddHost("src"); err != nil {
		return nil, err
	}
	if tb.Dst, err = tb.AddHost("dst"); err != nil {
		return nil, err
	}
	return tb, nil
}

// AddHost attaches a new host to the switch.
func (tb *Testbed) AddHost(name string) (*netsim.Host, error) {
	tb.nextIP++
	h := netsim.NewHost(name,
		packet.MAC{2, 0, 0, 0, 0, tb.nextIP},
		packet.IP4{10, 0, 0, tb.nextIP})
	if err := tb.Net.AddNode(h); err != nil {
		return nil, err
	}
	if err := tb.Net.Connect(h, tb.Switch, netsim.LinkOpts{}); err != nil {
		return nil, err
	}
	return h, nil
}

// AddConsumerMbox registers a middlebox with the DPI controller, adds
// its patterns, and attaches a result-consuming node for it.
func (tb *Testbed) AddConsumerMbox(id, typ string, reg ctlproto.Register, pats []string, logic middlebox.Logic) (*middlebox.ConsumerNode, error) {
	reg.MboxID, reg.Type = id, typ
	set, err := tb.DPICtl.Register(reg)
	if err != nil {
		return nil, err
	}
	defs := make([]ctlproto.PatternDef, len(pats))
	for i, p := range pats {
		defs[i] = ctlproto.PatternDef{RuleID: i, Content: []byte(p)}
	}
	if err := tb.DPICtl.AddPatterns(id, defs); err != nil {
		return nil, err
	}
	host, err := tb.AddHost(id)
	if err != nil {
		return nil, err
	}
	node := middlebox.NewConsumerNode(host, uint8(set), logic)
	// The registered degraded mode takes effect immediately; the janitor
	// that applies it to timed-out pairs is armed separately
	// (SetLossPolicy with a timeout) because the right timeout is
	// deployment-specific.
	mode := reg.FailMode
	if mode == "" {
		mode = ctlproto.DefaultFailMode(reg.ReadOnly)
	}
	node.SetLossPolicy(middlebox.PolicyFromFailMode(mode), 0)
	return node, nil
}

// AddDPIInstance builds an engine from the controller's current state
// (serving the given chains; nil = all) and attaches it as an instance
// node. Call after all middleboxes and chains are defined.
func (tb *Testbed) AddDPIInstance(id string, tags []uint16, dedicated bool) (*middlebox.DPINode, error) {
	cfg, err := tb.DPICtl.InstanceConfig(tags, dedicated)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	host, err := tb.AddHost(id)
	if err != nil {
		return nil, err
	}
	tb.DPICtl.AddInstance(id, tags, dedicated)
	return middlebox.NewDPINode(id, host, engine), nil
}

// AddLegacyMbox registers a middlebox and attaches a self-scanning
// legacy node for it (the Figure 1(a) baseline). The chain tag must
// already exist.
func (tb *Testbed) AddLegacyMbox(id, typ string, tag uint16, pats []string, logic middlebox.Logic) (*middlebox.LegacyNode, error) {
	cfg := core.Config{
		Profiles: []core.Profile{{ID: 0, Name: typ, Patterns: patterns.FromStrings(typ, pats)}},
		Chains:   map[uint16][]int{tag: {0}},
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	host, err := tb.AddHost(id)
	if err != nil {
		return nil, err
	}
	return middlebox.NewLegacyNode(host, engine, tag, 0, logic), nil
}

// UpdateInstance rebuilds an instance node's engine from the
// controller's current state — the runtime pattern-update path
// (Section 4.1: patterns are added and removed with dedicated messages,
// and the controller re-initializes the affected instances).
func (tb *Testbed) UpdateInstance(node *middlebox.DPINode, tags []uint16, dedicated bool) error {
	cfg, err := tb.DPICtl.InstanceConfig(tags, dedicated)
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(cfg)
	if err != nil {
		return err
	}
	node.SwapEngine(engine)
	return nil
}

// RegisterLegacy records a legacy middlebox with the DPI controller so
// chains can reference it (no patterns are pushed: it scans for
// itself).
func (tb *Testbed) RegisterLegacy(id, typ string) error {
	_, err := tb.DPICtl.Register(ctlproto.Register{MboxID: id, Type: typ})
	return err
}

// Stop tears the fabric down.
func (tb *Testbed) Stop() { tb.Net.Stop() }

// String describes the testbed.
func (tb *Testbed) String() string {
	return fmt.Sprintf("testbed{flows=%d chains=%v}", tb.Switch.NumFlows(), tb.DPICtl.ChainTags())
}
