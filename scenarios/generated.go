package scenarios

import (
	"fmt"

	"github.com/nice-go/nice/apps/loadbalancer"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// Generator-backed scenarios: the paper's applications re-run on
// parameterized topologies (topo.Star / FatTree / LinearHosts), opening
// the scenario-diversity axis beyond the fixed §7–§8 settings. Each is
// one declarative Spec literal.

// starNames names the load-balancer star: one client, then replicas.
func starNames(replicas int) []string {
	names := make([]string, replicas+1)
	names[0] = "client"
	for i := 1; i <= replicas; i++ {
		names[i] = fmt.Sprintf("r%d", i)
	}
	return names
}

// registerGenerated is called from the registry's init so the
// generator-backed scenarios list after the paper built-ins.
func registerGenerated() {
	// pyswitch on a k-ary fat tree: MAC-learning flooding meets path
	// redundancy. The buggy controller floods unknown destinations,
	// and a fat tree — unlike every preset topology except Cycle — has
	// loops, so one cross-pod ping is enough to violate
	// NoForwardingLoops (BUG-III's failure mode at datacenter shape).
	RegisterSpec(Spec{
		Name:         "pyswitch-fattree",
		Summary:      "MAC-learning flooding loops on a k-ary fat tree (BUG-III at datacenter shape)",
		App:          "pyswitch (MAC learning)",
		ScaleName:    "k",
		DefaultScale: 4,
		MaxScale:     maxFatTreeK,
		// topo.FatTree refuses an odd arity, and Resolve turns that
		// panic into an error naming the scenario.
		Topology: func(scale int) *topo.Topology {
			t, _ := topo.FatTree(scale)
			return t
		},
		NewApp: func(t *topo.Topology) controller.App { return pyswitch.New(pyswitch.Buggy, t) },
		NewFixedApp: func(t *topo.Topology) controller.App {
			return pyswitch.New(pyswitch.Fixed, t)
		},
		Hosts: []HostSpec{
			{Name: "h1", Sends: 1, SendToLast: true},
			{Last: true},
		},
		Properties:           []func() core.Property{Prop(props.NewNoForwardingLoops)},
		ExpectedProperty:     "NoForwardingLoops",
		StopAtFirstViolation: true,
		DisableSE:            true,
		FlowGroup:            macPairGroup,
	})

	// The §8.2 load balancer scaled out: `replicas` server replicas on
	// a hub-and-spoke star instead of the paper's two. The published
	// BUG-IV defect (the packet_in trigger is never released) is
	// policy-size-independent, so the scaled scenario must still
	// violate NoForgottenPackets — and the repaired app must not.
	RegisterSpec(Spec{
		Name:         "loadbalancer-star",
		Summary:      "§8.2 load balancer with N replicas on a Star topology (BUG-IV scaled out)",
		App:          "load balancer",
		ScaleName:    "replicas",
		DefaultScale: 4,
		MaxScale:     MaxHosts - 1, // and the client
		Topology: func(scale int) *topo.Topology {
			if scale < 2 {
				panic(fmt.Sprintf("scenarios: loadbalancer-star needs >= 2 replicas, got %d", scale))
			}
			t, _ := topo.Star(scale+1, starNames(scale)...)
			return t
		},
		NewApp: func(t *topo.Topology) controller.App {
			return loadbalancer.New(loadbalancer.Buggy, t, VIP, 1)
		},
		NewFixedApp: func(t *topo.Topology) controller.App {
			return loadbalancer.New(loadbalancer.Fixed, t, VIP, 1)
		},
		// Only the client is modelled: the replicas are passive sinks
		// in the §8.2 setting (nil-reply servers there, vanishing
		// attachment points here) and the app derives the replica set
		// from the topology, not from the modelled hosts.
		Hosts: []HostSpec{
			{Name: "client", Sends: 1, Seed: synToVIP},
		},
		Properties:           []func() core.Property{Prop(props.NewNoForgottenPackets)},
		ExpectedProperty:     "NoForgottenPackets",
		StopAtFirstViolation: true,
		Domains:              lbDomains,
		FlowGroup:            lbGroup,
		EnvGroup:             func(string) string { return "0-admin" },
	})

	// The ping workload on a multi-host line: every switch carries
	// bystander hosts, and the buggy pyswitch still leaves the reply
	// path going through the controller (BUG-II's failure mode away
	// from the single-switch setting).
	RegisterSpec(Spec{
		Name:         "pyswitch-linearhosts",
		Summary:      "MAC learning on LinearHosts(N, 2) — reply path sticks to the controller (BUG-II shape)",
		App:          "pyswitch (MAC learning)",
		ScaleName:    "switches",
		DefaultScale: 3,
		MaxScale:     MaxHosts / 2,
		Topology: func(scale int) *topo.Topology {
			t, _ := topo.LinearHosts(scale, 2)
			return t
		},
		NewApp: func(t *topo.Topology) controller.App { return pyswitch.New(pyswitch.Buggy, t) },
		NewFixedApp: func(t *topo.Topology) controller.App {
			return pyswitch.New(pyswitch.Fixed, t)
		},
		Hosts: []HostSpec{
			{Name: "h1", Sends: 2, SendToLast: true},
			{Last: true, Reply: hosts.EchoReply, ReplyBudget: 1},
		},
		Properties:           []func() core.Property{Prop(props.NewStrictDirectPaths)},
		ExpectedProperty:     "StrictDirectPaths",
		StopAtFirstViolation: true,
		DisableSE:            true,
		FlowGroup:            macPairGroup,
	})
}

// synToVIP is the load-balancer client seed: a TCP SYN from the client
// to the virtual IP (the §8.2 workload's packet shape).
func synToVIP(_ *topo.Topology, self, _ *topo.Host) openflow.Header {
	return openflow.Header{
		EthSrc: self.MAC, EthDst: loadbalancer.VirtualMAC,
		EthType: openflow.EthTypeIPv4,
		IPSrc:   self.IP, IPDst: VIP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, TCPFlags: openflow.TCPSyn, TCPSeq: 1000,
		Payload: "syn",
	}
}

// lbDomains is the load balancer's symbolic-input domain knowledge on
// any topology with a host named "client" (§3.2 specialized as in the
// Table 2 scenarios).
func lbDomains(t *topo.Topology) core.DomainHints {
	client, ok := t.HostByName("client")
	if !ok {
		panic(`scenarios: lbDomains needs a host named "client"`)
	}
	return core.DomainHints{
		ExtraIPs:  []openflow.IPAddr{VIP},
		ExtraMACs: []openflow.EthAddr{loadbalancer.VirtualMAC},
		EthTypes:  []uint16{openflow.EthTypeIPv4},
		Ports:     []uint16{80, 5555},
		Overrides: map[openflow.Field][]uint64{
			openflow.FieldEthDst:  {uint64(loadbalancer.VirtualMAC)},
			openflow.FieldIPDst:   {uint64(VIP)},
			openflow.FieldIPSrc:   {uint64(client.IP)},
			openflow.FieldEthSrc:  {uint64(client.MAC)},
			openflow.FieldTPDst:   {80},
			openflow.FieldIPProto: {uint64(openflow.IPProtoTCP)},
		},
	}
}
