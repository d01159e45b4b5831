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
	// BaseApp provides no-op handlers to embed.
	BaseApp = controller.BaseApp
	// Context is the per-invocation handler context and actuator.
	Context = controller.Context
)

// Host is the dynamic state of one end host (hosts).
type Host = hosts.Host

// Network model (openflow, topo).
type (
	// Topology is the static network description.
	Topology = topo.Topology
	// Header is a packet header.
	Header = openflow.Header
	// SwitchID identifies a switch.
	SwitchID = openflow.SwitchID
	// EthAddr is a 48-bit MAC address.
	EthAddr = openflow.EthAddr
	// IPAddr is an IPv4 address.
	IPAddr = openflow.IPAddr
	// Field names a packet header field (matching and symbolic
	// variables share this namespace).
	Field = openflow.Field
)

// The header fields properties and domain hints usually name (package
// openflow has the full OpenFlow 1.0 12-tuple).
const (
	FieldEthSrc  = openflow.FieldEthSrc
	FieldEthDst  = openflow.FieldEthDst
	FieldEthType = openflow.FieldEthType
	FieldIPSrc   = openflow.FieldIPSrc
	FieldIPDst   = openflow.FieldIPDst
	FieldIPProto = openflow.FieldIPProto
	FieldTPDst   = openflow.FieldTPDst
)

// Wire constants re-exported for convenience.
const (
	EthTypeIPv4  = openflow.EthTypeIPv4
	IPProtoTCP   = openflow.IPProtoTCP
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
func LookupFlow[V any](t *SymTrace, m map[openflow.Flow]V, p *SymPacket) (V, bool) {
	return sym.LookupFlow(t, m, p)
}

// CanonicalKey serializes v deterministically (map keys sorted, cycles
// cut) — the helper App.StateKey and Property.StateKey implementations
// use so equal logical states always produce equal keys.
func CanonicalKey(v any) string { return canon.String(v) }

// ReplayWithProperties re-executes a recorded trace from cfg's initial
// state on fresh discover caches, with the properties observing, and
// returns the violation it reproduces, if any.
func ReplayWithProperties(cfg *Config, trace []Transition) *Violation {
	return core.ReplayWithProperties(cfg, core.NewCaches(), trace)
}

// NewSimulator boots a system for interactive stepping (§1.3's
// "manually-driven, step-by-step system executions").
func NewSimulator(cfg *Config) *Simulator { return core.NewSimulator(cfg) }

// NewClient builds a client host: a bounded send transition plus
// receive, with PKT-SEQ's burst credit counter (§2.2.3, §4).
func NewClient(spec *topo.Host, sends, burst int, seed Header) *Host {
	return hosts.NewClient(spec, sends, burst, seed)
}

// NewServer builds a replying host (receive enables send_reply).
func NewServer(spec *topo.Host, reply hosts.ReplyFunc, replyBudget int) *Host {
	return hosts.NewServer(spec, reply, replyBudget)
}

// EchoReply is the layer-2 echo behaviour of the §7 ping workload.
func EchoReply(h *Host, rcv Header) (Header, bool) { return hosts.EchoReply(h, rcv) }

// Property library (§5.2); package props has the rest.
var (
	// NewStrictDirectPaths asserts both directions bypass the
	// controller once established.
	NewStrictDirectPaths = props.NewStrictDirectPaths
	// NewNoForgottenPackets asserts switch buffers drain by the end of
	// execution.
	NewNoForgottenPackets = props.NewNoForgottenPackets
)

// Topology construction; package topo has the other generators.
var (
	// SingleSwitch builds one switch with hosts A and B.
	SingleSwitch = topo.SingleSwitch
	// LoadBalancerTopo builds the §8.2 client/replicas setting.
	LoadBalancerTopo = topo.LoadBalancer
	// Triangle builds the §8.3 TE setting.
	Triangle = topo.Triangle
)
