package scenarios

import (
	"fmt"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// Spec is a declarative scenario: one composite literal naming the
// topology, the application, the end-host behaviours, the properties
// and the expected outcome. RegisterSpec compiles it into a registered
// Scenario, so adding a workload to the registry is writing data, not
// writing Build/Strategize plumbing:
//
//	scenarios.RegisterSpec(scenarios.Spec{
//		Name:     "pyswitch-fattree",
//		Topology: func(k int) *topo.Topology { t, _ := topo.FatTree(k); return t },
//		NewApp:   func(t *topo.Topology) controller.App { return pyswitch.New(pyswitch.Buggy, t) },
//		Hosts:    []scenarios.HostSpec{{Name: "h1", Sends: 1, SendToLast: true}},
//		Properties: []func() core.Property{props.NewNoForwardingLoops},
//		ExpectedProperty: "NoForwardingLoops",
//		StopAtFirstViolation: true,
//	})
type Spec struct {
	// Name, Summary and App label the scenario (Scenario fields).
	Name    string
	Summary string
	App     string

	// ScaleName/DefaultScale/MaxScale expose one scale knob; the scale
	// value is passed to Topology and to ScaleSends host specs.
	ScaleName    string
	DefaultScale int
	MaxScale     int

	// Topology builds the network at a given scale (the scale is the
	// generator parameter: k, switch count, …; ignore it for fixed
	// topologies).
	Topology func(scale int) *topo.Topology

	// NewApp builds the controller application under test; NewFixedApp
	// (optional) builds the repaired variant.
	NewApp      func(t *topo.Topology) controller.App
	NewFixedApp func(t *topo.Topology) controller.App

	// Hosts declares the modelled end hosts by topology name. Packets
	// reaching unlisted topology hosts vanish at the port (generated
	// topologies may have many more attachment points than actors).
	Hosts []HostSpec

	// Properties are the checked correctness properties (factory
	// references, e.g. props.NewNoForwardingLoops).
	Properties []func() core.Property

	// ExpectedProperty and Misses are the registry-test expectations:
	// the property a full search must violate ("" = expected clean)
	// and the strategy columns expected to miss it.
	ExpectedProperty string
	Misses           map[Strategy]bool

	// Search configuration knobs copied onto the built Config.
	StopAtFirstViolation bool
	DisableSE            bool
	AtomicEnv            bool
	MaxDepth             int

	// Domains supplies symbolic-input domain hints (optional).
	Domains func(t *topo.Topology) core.DomainHints

	// FlowGroup and EnvGroup wire the FLOW-IR strategy column
	// (optional; without FlowGroup, FLOW-IR is a no-op for this
	// scenario). NoDelay/Unusual need no wiring.
	FlowGroup core.GroupKeyFunc
	EnvGroup  func(string) string

	// Tune is a final escape hatch run on every built Config.
	Tune func(cfg *core.Config, scale int)
}

// HostSpec declares one modelled end host of a Spec by topology name.
// Sends > 0 makes it a client (with a generated layer-2 ping seed
// unless Seed overrides); otherwise it is a server answering with
// Reply (nil Reply = sink: receives and stays silent).
type HostSpec struct {
	// Name is the host's name in the topology. Last instead picks the
	// topology's last host, whatever its name — the far end of a
	// generated topology whose host names depend on the scale.
	Name string
	Last bool

	// Client knobs: Sends is the send budget (ScaleSends replaces it
	// with the scenario scale), Burst the PKT-SEQ burst credit.
	Sends      int
	ScaleSends bool
	Burst      int

	// SendTo names the destination host of the generated ping seed;
	// SendToLast targets the topology's last host (useful for
	// generated topologies where the far host's name depends on the
	// scale). Seed overrides the generated header entirely.
	SendTo     string
	SendToLast bool
	Seed       func(t *topo.Topology, self, to *topo.Host) openflow.Header

	// Server knobs: the reply behaviour and its budget.
	Reply       hosts.ReplyFunc
	ReplyBudget int
}

// PingBetween is the generated client seed: a layer-2 ping from one
// host to another (the §7 workload's packet shape).
func PingBetween(from, to *topo.Host) openflow.Header {
	return openflow.Header{
		EthSrc: from.MAC, EthDst: to.MAC, EthType: openflow.EthTypeIPv4,
		IPSrc: from.IP, IPDst: to.IP, IPProto: openflow.IPProtoICMP,
		Payload: "ping",
	}
}

// resolve builds the hosts.Host for one HostSpec on a built topology.
// With symbolic execution disabled the checker sends only repertoire
// packets, so the client's generated seed doubles as its repertoire.
func (hs HostSpec) resolve(t *topo.Topology, scale int, disableSE bool) *hosts.Host {
	var self *topo.Host
	if hs.Last {
		all := t.Hosts()
		self = all[len(all)-1]
	} else {
		var ok bool
		self, ok = t.HostByName(hs.Name)
		if !ok {
			panic(fmt.Sprintf("scenarios: spec host %q not in topology", hs.Name))
		}
	}
	sends := hs.Sends
	if hs.ScaleSends && scale > 0 {
		sends = scale
	}
	if sends > 0 {
		var to *topo.Host
		switch {
		case hs.SendToLast:
			all := t.Hosts()
			to = all[len(all)-1]
		case hs.SendTo != "":
			var ok bool
			to, ok = t.HostByName(hs.SendTo)
			if !ok {
				panic(fmt.Sprintf("scenarios: spec host %q sends to unknown host %q", hs.Name, hs.SendTo))
			}
		}
		var seed openflow.Header
		if hs.Seed != nil {
			seed = hs.Seed(t, self, to)
		} else if to != nil {
			seed = PingBetween(self, to)
		} else {
			panic(fmt.Sprintf("scenarios: spec host %q needs SendTo, SendToLast or Seed", hs.Name))
		}
		h := hosts.NewClient(self, sends, hs.Burst, seed)
		if disableSE {
			h.Repertoire = []openflow.Header{seed}
		}
		if hs.Reply != nil {
			h.Reply = hs.Reply
			h.ReplyBudget = hs.ReplyBudget
		}
		return h
	}
	return hosts.NewServer(self, hs.Reply, hs.ReplyBudget)
}

// Scenario compiles the declarative Spec into a registrable Scenario:
// Build constructs topology, app, hosts and properties; Strategize
// wires the generic strategy columns (NoDelay/Unusual flags plus the
// Spec's FLOW-IR grouping).
func (sp Spec) Scenario() Scenario {
	if sp.Topology == nil {
		panic("scenarios: Spec " + sp.Name + " without Topology")
	}
	if sp.NewApp == nil {
		panic("scenarios: Spec " + sp.Name + " without NewApp")
	}
	build := func(newApp func(*topo.Topology) controller.App) func(int) *core.Config {
		if newApp == nil {
			return nil
		}
		return func(scale int) *core.Config {
			if scale <= 0 {
				scale = sp.DefaultScale
			}
			t := sp.Topology(scale)
			hh := make([]*hosts.Host, len(sp.Hosts))
			for i, hs := range sp.Hosts {
				hh[i] = hs.resolve(t, scale, sp.DisableSE)
			}
			pp := make([]core.Property, len(sp.Properties))
			for i, f := range sp.Properties {
				pp[i] = f()
			}
			cfg := &core.Config{
				Topo:                 t,
				App:                  newApp(t),
				Hosts:                hh,
				Properties:           pp,
				StopAtFirstViolation: sp.StopAtFirstViolation,
				DisableSE:            sp.DisableSE,
				AtomicEnv:            sp.AtomicEnv,
				MaxDepth:             sp.MaxDepth,
			}
			if sp.Domains != nil {
				cfg.Domains = sp.Domains(t)
			}
			if sp.Tune != nil {
				sp.Tune(cfg, scale)
			}
			return cfg
		}
	}
	return Scenario{
		Name:             sp.Name,
		Summary:          sp.Summary,
		App:              sp.App,
		ExpectedProperty: sp.ExpectedProperty,
		Misses:           sp.Misses,
		ScaleName:        sp.ScaleName,
		DefaultScale:     sp.DefaultScale,
		MaxScale:         sp.MaxScale,
		Build:            build(sp.NewApp),
		BuildFixed:       build(sp.NewFixedApp),
		Strategize: func(cfg *core.Config, s Strategy) *core.Config {
			switch s {
			case NoDelay:
				cfg.NoDelay = true
			case Unusual:
				cfg.Unusual = true
			case FlowIR:
				if sp.FlowGroup != nil {
					cfg.FlowGroupKey = sp.FlowGroup
				}
				if sp.EnvGroup != nil {
					cfg.EnvGroupKey = sp.EnvGroup
				}
			}
			return cfg
		},
	}
}

// RegisterSpec compiles and registers a declarative scenario.
func RegisterSpec(sp Spec) { Register(sp.Scenario()) }

// Prop adapts a concrete property constructor (e.g.
// props.NewNoForwardingLoops, which returns its concrete type) to the
// Spec.Properties element type.
func Prop[P core.Property](f func() P) func() core.Property {
	return func() core.Property { return f() }
}
