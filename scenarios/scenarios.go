package scenarios

import (
	"fmt"
	"strings"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/apps/loadbalancer"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// Strategy selects one of Table 2's four search configurations.
type Strategy int

const (
	// PktSeqOnly is PKT-SEQ with no additional strategy (the default).
	PktSeqOnly Strategy = iota
	// NoDelay adds the NO-DELAY lock-step strategy.
	NoDelay
	// FlowIR adds flow-independence reduction (scenario-specific
	// grouping).
	FlowIR
	// Unusual adds the unusual-delays search ordering.
	Unusual
)

// Strategies lists Table 2's column order.
var Strategies = []Strategy{PktSeqOnly, NoDelay, FlowIR, Unusual}

// StrategyNames spells Strategies as ParseStrategy reads them.
func StrategyNames() []string {
	names := make([]string, len(Strategies))
	for i, s := range Strategies {
		names[i] = strings.ToLower(s.String())
	}
	return names
}

func (s Strategy) String() string {
	switch s {
	case NoDelay:
		return "NO-DELAY"
	case FlowIR:
		return "FLOW-IR"
	case Unusual:
		return "UNUSUAL"
	default:
		return "PKT-SEQ"
	}
}

// ParseStrategy resolves a Table 2 strategy column from its CLI
// spelling ("pkt-seq", "no-delay", "flow-ir", "unusual", case
// insensitive; "" is PKT-SEQ). The boolean reports whether the name
// was recognized.
func ParseStrategy(name string) (Strategy, bool) {
	switch strings.ToLower(name) {
	case "", "pkt-seq":
		return PktSeqOnly, true
	case "no-delay":
		return NoDelay, true
	case "flow-ir":
		return FlowIR, true
	case "unusual":
		return Unusual, true
	default:
		return PktSeqOnly, false
	}
}

// The built-in rows' building blocks: the paper's three applications,
// the end-host seeds and domain knowledge of their §7–§8 settings, and
// their FLOW-IR groupings.

// VIP is the load balancer's virtual IP.
var VIP = openflow.MakeIPAddr(10, 0, 0, 100)

// TEThreshold is the TE scenario's high-load utilization threshold.
const TEThreshold = 1000

// presetTopology is a Spec.Topology over a fixed two-host preset.
type presetTopology func() (*topo.Topology, openflow.HostID, openflow.HostID)

func cycle3() (*topo.Topology, openflow.HostID, openflow.HostID) { return topo.Cycle(3) }

func pyswitchApp(v pyswitch.Variant) func(*topo.Topology) controller.App {
	return func(t *topo.Topology) controller.App { return pyswitch.New(v, t) }
}

// pyswitchBug is a §8.1 row: host A sends `sends` layer-2 pings to host
// B on a preset topology under the MAC-learning controller; B answers
// one with reply, or stays silent when reply is nil.
func pyswitchBug(name string, preset presetTopology, sends int, reply hosts.ReplyFunc,
	property string, newProp func(*topo.Topology) core.Property) Spec {
	b := HostSpec{Name: "B"}
	if reply != nil {
		b.Reply, b.ReplyBudget = reply, 1
	}
	return Spec{
		Name:             name,
		App:              pyswitchLabel,
		Topology:         func(int) *topo.Topology { t, _, _ := preset(); return t },
		NewApp:           pyswitchApp(pyswitch.Buggy),
		NewFixedApp:      pyswitchApp(pyswitch.Fixed),
		Hosts:            []HostSpec{{Name: "A", Sends: sends, SendTo: "B"}, b},
		Properties:       []func(*topo.Topology) core.Property{newProp},
		ExpectedProperty: property,
		FlowGroup:        macPairGroup,
	}
}

// lbBug is a §8.2 row: the client opens one TCP connection to the VIP
// of the load balancer at fix level `fix`, which may change its policy
// `reconfigs` times; the replicas r1 and r2 stay silent.
func lbBug(name string, fix loadbalancer.FixLevel, reconfigs int) Spec {
	return Spec{
		Name:     name,
		App:      lbLabel,
		Topology: func(int) *topo.Topology { t, _, _, _ := topo.LoadBalancer(); return t },
		NewApp: func(t *topo.Topology) controller.App {
			return loadbalancer.New(fix, t, VIP, reconfigs)
		},
		NewFixedApp: func(t *topo.Topology) controller.App {
			return loadbalancer.New(loadbalancer.Fixed, t, VIP, reconfigs)
		},
		Hosts:            []HostSpec{{Name: "client", Sends: 1, Seed: synToVIP}, {Name: "r1"}, {Name: "r2"}},
		Properties:       []func(*topo.Topology) core.Property{Prop(props.NewNoForgottenPackets)},
		ExpectedProperty: "NoForgottenPackets",
		Domains:          lbDomains,
		FlowGroup:        lbGroup,
		EnvGroup:         func(string) string { return "0-admin" },
	}
}

// teBug is a §8.3 row: sender S sends `sends` TCP packets to receiver
// R1 across the energy-efficient TE controller at fix level `fix`, which
// polls link load `polls` times; R1 and R2 stay silent.
func teBug(name string, fix energyte.FixLevel, polls, sends int) Spec {
	return Spec{
		Name:     name,
		App:      teLabel,
		Topology: func(int) *topo.Topology { t, _, _, _ := topo.Triangle(); return t },
		NewApp: func(t *topo.Topology) controller.App {
			return energyte.New(fix, t, TEThreshold, polls)
		},
		NewFixedApp: func(t *topo.Topology) controller.App {
			return energyte.New(energyte.Fixed, t, TEThreshold, polls)
		},
		Hosts:            []HostSpec{{Name: "S", Sends: sends, SendTo: "R1", Seed: teSeed}, {Name: "R1"}, {Name: "R2"}},
		Properties:       []func(*topo.Topology) core.Property{Prop(props.NewNoForgottenPackets)},
		ExpectedProperty: "NoForgottenPackets",
		Domains:          teDomains,
		FlowGroup:        macPairGroup,
	}
}

// pingRepertoire is the ping workload's Tune: host A's `pings` sends are
// distinct echo requests, each sent once (like distinct ICMP sequence
// numbers), and host B answers every one.
func pingRepertoire(cfg *core.Config, pings int) {
	a := cfg.Hosts[0]
	a.Repertoire = make([]openflow.Header, pings)
	for i := range a.Repertoire {
		ping := a.Seed
		ping.Payload = fmt.Sprintf("ping%d", i+1)
		ping.TCPSeq = uint32(i + 1)
		a.Repertoire[i] = ping
	}
	a.RepertoireOnce = true
	cfg.Hosts[1].ReplyBudget = pings
}

// pingGroup is the ping workload's FLOW-IR grouping: each ping exchange
// (request plus its echo) is one independent flow group.
func pingGroup(h openflow.Header) (string, bool) {
	return strings.TrimPrefix(h.Payload, "re:"), false
}

// macPairGroup groups packets by their unordered MAC pair — the
// per-conversation flow grouping used with pyswitch ("other programs may
// treat packets with different destination MAC addresses independently",
// §4).
func macPairGroup(h openflow.Header) (string, bool) {
	a, b := h.EthSrc, h.EthDst
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("pair-%v-%v", a, b), false
}

// lbGroup is the load balancer's isSameFlow: TCP packets group by
// connection 4-tuple, but a SYN starts a new, independent flow instance —
// the modelling choice that makes FLOW-IR miss BUG-VII ("the duplicate
// SYN is treated as a new independent flow", §8.4). ARP traffic is its
// own group.
func lbGroup(h openflow.Header) (string, bool) {
	if h.EthType == openflow.EthTypeARP {
		return "arp", false
	}
	key := fmt.Sprintf("tcp-%v-%d-%d", h.IPSrc, h.TPSrc, h.TPDst)
	return key, h.TCPFlags&openflow.TCPSyn != 0
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
// any topology with a host named "client": the client addresses the
// service, not arbitrary hosts (§3.2's topology-driven constraints,
// specialized to the scenario).
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

// flowAffinity is BUG-VII's property: every packet of a connection to
// the VIP reaches the same replica.
func flowAffinity(t *topo.Topology) core.Property {
	r1, _ := t.HostByName("r1")
	r2, _ := t.HostByName("r2")
	return props.NewFlowAffinity(VIP, r1.ID, r2.ID)
}

// teSeed is the TE sender's seed: a TCP packet to the receiver.
func teSeed(_ *topo.Topology, self, to *topo.Host) openflow.Header {
	return openflow.Header{
		EthSrc: self.MAC, EthDst: to.MAC,
		EthType: openflow.EthTypeIPv4,
		IPSrc:   self.IP, IPDst: to.IP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, Payload: "data",
	}
}

// teDomains is the TE scenario's domain knowledge on the Triangle
// topology: the sender addresses the receivers.
func teDomains(t *topo.Topology) core.DomainHints {
	s, _ := t.HostByName("S")
	r1, _ := t.HostByName("R1")
	r2, _ := t.HostByName("R2")
	return core.DomainHints{
		EthTypes: []uint16{openflow.EthTypeIPv4},
		Ports:    []uint16{80, 5555},
		Overrides: map[openflow.Field][]uint64{
			openflow.FieldEthSrc: {uint64(s.MAC)},
			openflow.FieldEthDst: {uint64(r1.MAC), uint64(r2.MAC)},
			openflow.FieldIPSrc:  {uint64(s.IP)},
			openflow.FieldIPDst:  {uint64(r1.IP), uint64(r2.IP)},
		},
	}
}

// teSpec is BUG-X's routing-table specification on the Triangle
// topology: s1's always-on and on-demand ports and the load threshold.
func teSpec(t *topo.Topology) props.TESpec {
	alwaysOn, _ := t.LinkPort(1, 2)
	onDemand, _ := t.LinkPort(1, 3)
	return props.TESpec{
		Ingress:      1,
		AlwaysOnPort: alwaysOn,
		OnDemandPort: onDemand,
		MonitorPort:  alwaysOn,
		Threshold:    TEThreshold,
	}
}
