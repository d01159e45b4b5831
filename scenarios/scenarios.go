package scenarios

import (
	"fmt"
	"sort"
	"strings"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/apps/loadbalancer"
	"github.com/nice-go/nice/apps/pyswitch"
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

// pingHeader is host A's layer-2 ping to host B.
func pingHeader(t *topo.Topology) openflow.Header {
	a, _ := t.HostByName("A")
	b, _ := t.HostByName("B")
	return openflow.Header{
		EthSrc: a.MAC, EthDst: b.MAC, EthType: openflow.EthTypeIPv4,
		IPSrc: a.IP, IPDst: b.IP, IPProto: openflow.IPProtoICMP,
		Payload: "ping",
	}
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

// PingPong builds the §7 experimental setup: the Figure 1 topology
// (A — s1 — s2 — B), the MAC-learning controller, and "host A sends a
// 'layer-2 ping' packet to host B which replies with a packet to A",
// with `pings` concurrent exchanges — C distinct echo requests, each
// sent once (like distinct ICMP sequence numbers). Symbolic execution is
// off, as in Table 1 ("Symbolic execution is turned off in both cases"):
// A's repertoire holds the concrete pings.
func PingPong(pings int) *core.Config {
	t, aID, bID := topo.Linear(2)
	a := hosts.NewClient(t.Host(aID), pings, 0, pingHeader(t))
	for i := 1; i <= pings; i++ {
		ping := pingHeader(t)
		ping.Payload = fmt.Sprintf("ping%d", i)
		ping.TCPSeq = uint32(i)
		a.Repertoire = append(a.Repertoire, ping)
	}
	a.RepertoireOnce = true
	b := hosts.NewServer(t.Host(bID), hosts.EchoReply, pings)
	return &core.Config{
		Topo:      t,
		App:       pyswitch.New(pyswitch.Buggy, t),
		Hosts:     []*hosts.Host{a, b},
		DisableSE: true,
	}
}

// PingGroup is the FLOW-IR grouping for the ping workload: each ping
// exchange (request plus its echo) is one independent flow group.
func PingGroup(h openflow.Header) (string, bool) {
	return strings.TrimPrefix(h.Payload, "re:"), false
}

// PingPongSE is PingPong with symbolic execution enabled: host A's sends
// are discovered by discover_packets instead of being fixed.
func PingPongSE(pings int) *core.Config {
	cfg := PingPong(pings)
	cfg.DisableSE = false
	return cfg
}

// BaselineFine is the ping workload checked the way an off-the-shelf
// model checker would see the system (DESIGN.md §2, substitution 3): one
// packet per channel per transition instead of the batched process_pkt,
// and raw, uncanonicalized switch state. It stands in for the paper's
// SPIN/JPF comparison and loses to NICE-MC by the same shape.
func BaselineFine(pings int) *core.Config {
	cfg := PingPong(pings)
	cfg.MicroSteps = true
	cfg.NoSwitchReduction = true
	return cfg
}

// Bug identifies one of the paper's eleven bugs.
type Bug int

// The eleven bugs of §8.
const (
	BugI Bug = iota + 1
	BugII
	BugIII
	BugIV
	BugV
	BugVI
	BugVII
	BugVIII
	BugIX
	BugX
	BugXI
)

var bugNames = map[Bug]string{
	BugI: "BUG-I", BugII: "BUG-II", BugIII: "BUG-III", BugIV: "BUG-IV",
	BugV: "BUG-V", BugVI: "BUG-VI", BugVII: "BUG-VII", BugVIII: "BUG-VIII",
	BugIX: "BUG-IX", BugX: "BUG-X", BugXI: "BUG-XI",
}

func (b Bug) String() string { return bugNames[b] }

// AllBugs lists the bugs in Table 2 order.
var AllBugs = []Bug{BugI, BugII, BugIII, BugIV, BugV, BugVI, BugVII, BugVIII, BugIX, BugX, BugXI}

// ExpectedProperty names the property each bug violates (§8).
func (b Bug) ExpectedProperty() string {
	switch b {
	case BugI:
		return "NoBlackHoles"
	case BugII:
		return "StrictDirectPaths"
	case BugIII:
		return "NoForwardingLoops"
	case BugVII:
		return "FlowAffinity"
	case BugX:
		return "UseCorrectRoutingTable"
	default:
		return "NoForgottenPackets"
	}
}

// VIP is the load balancer's virtual IP.
var VIP = openflow.MakeIPAddr(10, 0, 0, 100)

// TEThreshold is the TE scenario's high-load utilization threshold.
const TEThreshold = 1000

// BugConfig builds the checking configuration that uncovers the given
// bug, with the fix level set so all earlier bugs in the same
// application are repaired (the paper found each bug after fixing the
// previous one). The returned config uses PKT-SEQ only and stops at the
// first violation; apply WithStrategy for the other Table 2 columns.
func BugConfig(b Bug) *core.Config {
	var cfg *core.Config
	switch b {
	case BugI:
		t, aID, bID := topo.SingleSwitchMobile()
		a := hosts.NewClient(t.Host(aID), 2, 0, pingHeader(t))
		srv := hosts.NewServer(t.Host(bID), hosts.EchoReply, 1)
		cfg = &core.Config{
			Topo: t, App: pyswitch.New(pyswitch.Buggy, t),
			Hosts:      []*hosts.Host{a, srv},
			Properties: []core.Property{props.NewNoBlackHoles()},
		}
	case BugII:
		t, aID, bID := topo.SingleSwitch()
		a := hosts.NewClient(t.Host(aID), 2, 0, pingHeader(t))
		srv := hosts.NewServer(t.Host(bID), hosts.EchoReply, 1)
		cfg = &core.Config{
			Topo: t, App: pyswitch.New(pyswitch.Buggy, t),
			Hosts:      []*hosts.Host{a, srv},
			Properties: []core.Property{props.NewStrictDirectPaths()},
		}
	case BugIII:
		t, aID, bID := topo.Cycle(3)
		a := hosts.NewClient(t.Host(aID), 1, 0, pingHeader(t))
		srv := hosts.NewServer(t.Host(bID), nil, 0)
		cfg = &core.Config{
			Topo: t, App: pyswitch.New(pyswitch.Buggy, t),
			Hosts:      []*hosts.Host{a, srv},
			Properties: []core.Property{props.NewNoForwardingLoops()},
		}
	case BugIV, BugV, BugVI, BugVII:
		cfg = lbConfig(b)
	case BugVIII, BugIX, BugX, BugXI:
		cfg = teConfig(b)
	default:
		panic(fmt.Sprintf("scenarios: unknown bug %d", int(b)))
	}
	cfg.StopAtFirstViolation = true
	return cfg
}

func lbConfig(b Bug) *core.Config {
	t, clientID, r1ID, r2ID := topo.LoadBalancer()
	client := t.Host(clientID)
	syn := openflow.Header{
		EthSrc: client.MAC, EthDst: loadbalancer.VirtualMAC,
		EthType: openflow.EthTypeIPv4,
		IPSrc:   client.IP, IPDst: VIP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, TCPFlags: openflow.TCPSyn, TCPSeq: 1000,
		Payload: "syn",
	}

	var fix loadbalancer.FixLevel
	sends := 1
	reconfigs := 1
	atomicEnv := false
	ethTypes := []uint16{openflow.EthTypeIPv4}
	var properties []core.Property

	switch b {
	case BugIV:
		fix = loadbalancer.Buggy
		properties = []core.Property{props.NewNoForgottenPackets()}
	case BugV:
		fix = loadbalancer.FixIV
		properties = []core.Property{props.NewNoForgottenPackets()}
	case BugVI:
		fix = loadbalancer.FixV
		reconfigs = 0
		ethTypes = []uint16{openflow.EthTypeIPv4, openflow.EthTypeARP}
		properties = []core.Property{props.NewNoForgottenPackets()}
	case BugVII:
		fix = loadbalancer.FixVI
		sends = 2
		properties = []core.Property{props.NewFlowAffinity(VIP, r1ID, r2ID)}
		// The published BUG-VII needs a connection established before
		// the policy change; applying the reconfiguration atomically
		// keeps BUG-V-family update races (already fixed at this
		// level's scenario) out of the search.
		atomicEnv = true
	}

	c := hosts.NewClient(client, sends, 0, syn)
	r1 := hosts.NewServer(t.Host(r1ID), nil, 0)
	r2 := hosts.NewServer(t.Host(r2ID), nil, 0)
	return &core.Config{
		AtomicEnv:  atomicEnv,
		Topo:       t,
		App:        loadbalancer.New(fix, t, VIP, reconfigs),
		Hosts:      []*hosts.Host{c, r1, r2},
		Properties: properties,
		Domains: core.DomainHints{
			ExtraIPs:  []openflow.IPAddr{VIP},
			ExtraMACs: []openflow.EthAddr{loadbalancer.VirtualMAC},
			EthTypes:  ethTypes,
			Ports:     []uint16{80, 5555},
			// Domain knowledge: the client addresses the service, not
			// arbitrary hosts (§3.2's topology-driven constraints,
			// specialized to the scenario).
			Overrides: map[openflow.Field][]uint64{
				openflow.FieldEthDst:  {uint64(loadbalancer.VirtualMAC)},
				openflow.FieldIPDst:   {uint64(VIP)},
				openflow.FieldIPSrc:   {uint64(client.IP)},
				openflow.FieldEthSrc:  {uint64(client.MAC)},
				openflow.FieldTPDst:   {80},
				openflow.FieldIPProto: {uint64(openflow.IPProtoTCP)},
			},
		},
	}
}

func teConfig(b Bug) *core.Config {
	t, sID, r1ID, r2ID := topo.Triangle()
	sender := t.Host(sID)
	seed := openflow.Header{
		EthSrc: sender.MAC, EthDst: t.Host(r1ID).MAC,
		EthType: openflow.EthTypeIPv4,
		IPSrc:   sender.IP, IPDst: t.Host(r1ID).IP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, Payload: "data",
	}

	var fix energyte.FixLevel
	sends := 1
	polls := 0
	var properties []core.Property

	switch b {
	case BugVIII:
		fix = energyte.Buggy
		properties = []core.Property{props.NewNoForgottenPackets()}
	case BugIX:
		fix = energyte.FixVIII
		properties = []core.Property{props.NewNoForgottenPackets()}
	case BugX:
		fix = energyte.FixIX
		polls = 1
		sends = 1
		properties = []core.Property{props.NewUseCorrectRoutingTable(teSpec(t))}
	case BugXI:
		fix = energyte.FixX
		polls = 2
		sends = 2
		properties = []core.Property{props.NewNoForgottenPackets()}
	}

	s := hosts.NewClient(sender, sends, 0, seed)
	r1 := hosts.NewServer(t.Host(r1ID), nil, 0)
	r2 := hosts.NewServer(t.Host(r2ID), nil, 0)
	return &core.Config{
		Topo:       t,
		App:        energyte.New(fix, t, TEThreshold, polls),
		Hosts:      []*hosts.Host{s, r1, r2},
		Properties: properties,
		Domains: core.DomainHints{
			EthTypes: []uint16{openflow.EthTypeIPv4},
			Ports:    []uint16{80, 5555},
			// Domain knowledge: the sender addresses the receivers.
			Overrides: map[openflow.Field][]uint64{
				openflow.FieldEthSrc: {uint64(sender.MAC)},
				openflow.FieldEthDst: {uint64(t.Host(r1ID).MAC), uint64(t.Host(r2ID).MAC)},
				openflow.FieldIPSrc:  {uint64(sender.IP)},
				openflow.FieldIPDst:  {uint64(t.Host(r1ID).IP), uint64(t.Host(r2ID).IP)},
			},
		},
	}
}

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

// WithStrategy applies one of Table 2's strategy columns to a bug
// configuration, including the scenario-appropriate FLOW-IR grouping.
func WithStrategy(cfg *core.Config, b Bug, s Strategy) *core.Config {
	switch s {
	case NoDelay:
		cfg.NoDelay = true
	case Unusual:
		cfg.Unusual = true
	case FlowIR:
		switch {
		case b <= BugIII:
			cfg.FlowGroupKey = macPairGroup
		case b <= BugVII:
			cfg.FlowGroupKey = lbGroup
			cfg.EnvGroupKey = func(string) string { return "0-admin" }
		default:
			cfg.FlowGroupKey = macPairGroup
		}
	}
	return cfg
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

// PyswitchBench is the pyswitch BUG-II Table 2 scenario scaled to
// `sends` client packets, with the early stop removed so the whole
// state space is walked — the workload the benchmark's pyswitch-full-*
// runs and the parallel-engine differential tests measure against. At
// sends=3 the full search runs ~10k unique states, enough for worker
// scaling to show.
func PyswitchBench(sends int) *core.Config {
	cfg := BugConfig(BugII)
	cfg.StopAtFirstViolation = false
	cfg.Hosts[0].SendBudget = sends
	return cfg
}

// LoadBalancerBench is the load-balancer BUG-IV Table 2 scenario scaled
// to `sends` client packets with the early stop removed — the
// benchmark's loadbalancer workloads (symbolic execution on, environment
// reconfiguration in play, wildcard rules). At sends=4 the full search
// runs ~13k unique states.
func LoadBalancerBench(sends int) *core.Config {
	cfg := BugConfig(BugIV)
	cfg.StopAtFirstViolation = false
	cfg.Hosts[0].SendBudget = sends
	return cfg
}

// FixedConfig builds the same scenario as BugConfig but with the fully
// repaired application, for asserting the fixes hold.
func FixedConfig(b Bug) *core.Config {
	cfg := BugConfig(b)
	switch {
	case b <= BugIII:
		cfg.App = pyswitch.New(pyswitch.Fixed, cfg.Topo)
	case b <= BugVII:
		reconfigs := 1
		if b == BugVI {
			reconfigs = 0
		}
		cfg.App = loadbalancer.New(loadbalancer.Fixed, cfg.Topo, VIP, reconfigs)
	default:
		polls := 0
		if b == BugX {
			polls = 1
		}
		if b == BugXI {
			polls = 2
		}
		cfg.App = energyte.New(energyte.Fixed, cfg.Topo, TEThreshold, polls)
	}
	return cfg
}

// SortedBugNames is a convenience for stable test output.
func SortedBugNames() []string {
	names := make([]string, 0, len(bugNames))
	for _, n := range bugNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
