package nice

import (
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// Checking machinery (internal/core).
type (
	// Config describes one checking task: system model, properties,
	// strategy and budgets.
	Config = core.Config
	// DomainHints supplies symbolic-input domain knowledge (§3.2).
	DomainHints = core.DomainHints
	// Checker runs state-space searches.
	Checker = core.Checker
	// Report summarizes a search.
	Report = core.Report
	// Violation is a property failure with a replayable trace.
	Violation = core.Violation
	// Transition is one step of a system execution.
	Transition = core.Transition
	// Event is an observable occurrence properties subscribe to.
	Event = core.Event
	// EventKind discriminates events.
	EventKind = core.EventKind
	// Property is a pluggable correctness property (§5).
	Property = core.Property
	// System is one state of the modelled network.
	System = core.System
	// Simulator drives manually-chosen step-by-step executions.
	Simulator = core.Simulator
	// GroupKeyFunc configures the FLOW-IR strategy.
	GroupKeyFunc = core.GroupKeyFunc
)

// Controller programming model (controller).
type (
	// App is a controller application under test.
	App = controller.App
	// EnvApp adds environment (reconfiguration) events to an App.
	EnvApp = controller.EnvApp
	// BaseApp provides no-op handlers to embed.
	BaseApp = controller.BaseApp
	// Context is the per-invocation handler context and actuator.
	Context = controller.Context
)

// End hosts (hosts).
type (
	// Host is the dynamic state of one end host.
	Host = hosts.Host
	// ReplyFunc derives a server's reply to a received packet.
	ReplyFunc = hosts.ReplyFunc
)

// Network model (openflow, topo).
type (
	// Topology is the static network description.
	Topology = topo.Topology
	// PortKey names one switch port.
	PortKey = topo.PortKey
	// Header is a packet header.
	Header = openflow.Header
	// Packet is a packet instance with identity.
	Packet = openflow.Packet
	// Match is an OpenFlow wildcard pattern.
	Match = openflow.Match
	// Rule is a flow-table entry.
	Rule = openflow.Rule
	// SwitchID identifies a switch.
	SwitchID = openflow.SwitchID
	// PortID identifies a switch port.
	PortID = openflow.PortID
	// HostID identifies an end host.
	HostID = openflow.HostID
	// EthAddr is a 48-bit MAC address.
	EthAddr = openflow.EthAddr
	// IPAddr is an IPv4 address.
	IPAddr = openflow.IPAddr
	// Field names a packet header field (matching and symbolic
	// variables share this namespace).
	Field = openflow.Field
	// Flow is a connection 4-tuple (the load balancer's microflow key).
	Flow = openflow.Flow
)

// Header fields (the OpenFlow 1.0 12-tuple plus controller-visible
// extras).
const (
	FieldInPort   = openflow.FieldInPort
	FieldEthSrc   = openflow.FieldEthSrc
	FieldEthDst   = openflow.FieldEthDst
	FieldEthType  = openflow.FieldEthType
	FieldIPSrc    = openflow.FieldIPSrc
	FieldIPDst    = openflow.FieldIPDst
	FieldIPProto  = openflow.FieldIPProto
	FieldTPSrc    = openflow.FieldTPSrc
	FieldTPDst    = openflow.FieldTPDst
	FieldTCPFlags = openflow.FieldTCPFlags
	FieldArpOp    = openflow.FieldArpOp
)

// Wire constants re-exported for convenience.
const (
	EthTypeIPv4  = openflow.EthTypeIPv4
	EthTypeARP   = openflow.EthTypeARP
	IPProtoTCP   = openflow.IPProtoTCP
	TCPSyn       = openflow.TCPSyn
	TCPAck       = openflow.TCPAck
	BroadcastEth = openflow.BroadcastEth
)

// Event kinds properties subscribe to (§5.1's transition callbacks).
const (
	EvHostSend      = core.EvHostSend
	EvDelivered     = core.EvDelivered
	EvHostMove      = core.EvHostMove
	EvArrive        = core.EvArrive
	EvProcessed     = core.EvProcessed
	EvPacketIn      = core.EvPacketIn
	EvBuffered      = core.EvBuffered
	EvReleased      = core.EvReleased
	EvDropped       = core.EvDropped
	EvVanished      = core.EvVanished
	EvCopied        = core.EvCopied
	EvCtrlInject    = core.EvCtrlInject
	EvRuleInstalled = core.EvRuleInstalled
	EvRuleDeleted   = core.EvRuleDeleted
	EvCtrlDispatch  = core.EvCtrlDispatch
	EvStats         = core.EvStats
	EvEnv           = core.EvEnv
)

// MakeEthAddr builds a MAC address from six octets.
func MakeEthAddr(b0, b1, b2, b3, b4, b5 byte) EthAddr {
	return openflow.MakeEthAddr(b0, b1, b2, b3, b4, b5)
}

// MakeIPAddr builds an IPv4 address from four octets.
func MakeIPAddr(b0, b1, b2, b3 byte) IPAddr { return openflow.MakeIPAddr(b0, b1, b2, b3) }

// Symbolic packets and stats (internal/sym) for application authors.
type (
	// SymPacket is a packet with concolic header fields.
	SymPacket = sym.Packet
	// SymStats is a stats reply with concolic counters.
	SymStats = sym.Stats
	// SymValue is a concolic integer.
	SymValue = sym.Value
	// SymBool is a concolic boolean.
	SymBool = sym.Bool
	// SymTrace records the branch decisions of one concolic handler
	// run (Context.Trace hands it to the Lookup* stubs).
	SymTrace = sym.Trace
)

// LookupEth reads m[key] through the concolic engine, recording the
// which-entry branch constraint so discover_packets can enumerate one
// packet class per map outcome — the paper's §3 map-stub convention.
// Handlers must route every packet-dependent map access through a
// Lookup* stub (or Context.If) for symbolic execution to see it.
func LookupEth[V any](t *SymTrace, m map[EthAddr]V, key SymValue) (V, bool) {
	return sym.LookupEth(t, m, key)
}

// LookupIP is LookupEth for IPv4-keyed maps.
func LookupIP[V any](t *SymTrace, m map[IPAddr]V, key SymValue) (V, bool) {
	return sym.LookupIP(t, m, key)
}

// LookupFlow is LookupEth for connection-4-tuple-keyed maps: the whole
// tuple participates in the recorded constraint.
func LookupFlow[V any](t *SymTrace, m map[Flow]V, p *SymPacket) (V, bool) {
	return sym.LookupFlow(t, m, p)
}

// CanonicalKey serializes v deterministically (map keys sorted, cycles
// cut) — the helper App.StateKey and Property.StateKey implementations
// use so equal logical states always produce equal keys.
func CanonicalKey(v any) string { return canon.String(v) }

// NewChecker prepares a search over a configuration.
func NewChecker(cfg *Config) *Checker { return core.NewChecker(cfg) }

// NewSimulator boots a system for interactive stepping (§1.3's
// "manually-driven, step-by-step system executions").
func NewSimulator(cfg *Config) *Simulator { return core.NewSimulator(cfg) }

// NewClient builds a client host: a bounded send transition plus
// receive, with PKT-SEQ's burst credit counter (§2.2.3, §4).
func NewClient(spec *topo.Host, sends, burst int, seed Header) *Host {
	return hosts.NewClient(spec, sends, burst, seed)
}

// NewServer builds a replying host (receive enables send_reply).
func NewServer(spec *topo.Host, reply ReplyFunc, replyBudget int) *Host {
	return hosts.NewServer(spec, reply, replyBudget)
}

// EchoReply is the layer-2 echo behaviour of the §7 ping workload.
func EchoReply(h *Host, rcv Header) (Header, bool) { return hosts.EchoReply(h, rcv) }

// TCPServerReply models a TCP server (SYN→SYN|ACK, data→ACK).
func TCPServerReply(h *Host, rcv Header) (Header, bool) { return hosts.TCPServerReply(h, rcv) }

// Property library (§5.2).
var (
	// NewNoForwardingLoops asserts no packet loops.
	NewNoForwardingLoops = props.NewNoForwardingLoops
	// NewNoBlackHoles asserts every packet leaves the network or is
	// consumed by the controller.
	NewNoBlackHoles = props.NewNoBlackHoles
	// NewDirectPaths asserts established flows bypass the controller.
	NewDirectPaths = props.NewDirectPaths
	// NewStrictDirectPaths asserts both directions bypass the
	// controller once established.
	NewStrictDirectPaths = props.NewStrictDirectPaths
	// NewNoForgottenPackets asserts switch buffers drain by the end of
	// execution.
	NewNoForgottenPackets = props.NewNoForgottenPackets
	// NewFlowAffinity asserts a TCP connection sticks to one replica.
	NewFlowAffinity = props.NewFlowAffinity
	// NewUseCorrectRoutingTable asserts flows use the load-appropriate
	// routing table.
	NewUseCorrectRoutingTable = props.NewUseCorrectRoutingTable
)

// Topology construction.
var (
	// NewTopology returns an empty topology builder.
	NewTopology = topo.New
	// Linear builds A — s1 — … — sn — B (Figure 1 generalized).
	Linear = topo.Linear
	// SingleSwitch builds one switch with hosts A and B.
	SingleSwitch = topo.SingleSwitch
	// SingleSwitchMobile adds a third port host B can move to.
	SingleSwitchMobile = topo.SingleSwitchMobile
	// Cycle builds n switches in a ring.
	Cycle = topo.Cycle
	// LoadBalancerTopo builds the §8.2 client/replicas setting.
	LoadBalancerTopo = topo.LoadBalancer
	// Triangle builds the §8.3 TE setting.
	Triangle = topo.Triangle
)
