package core

import (
	"fmt"

	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// EventKind enumerates the observable events a transition can produce.
// Correctness properties register for these (§5.1: properties "register
// callbacks invoked by NICE to observe important transitions").
type EventKind int

const (
	// EvHostSend: a host injected a packet into the network.
	EvHostSend EventKind = iota
	// EvDelivered: a packet reached a host.
	EvDelivered
	// EvHostMove: a mobile host relocated.
	EvHostMove
	// EvArrive: a packet was enqueued on a switch ingress channel.
	EvArrive
	// EvProcessed: a switch processed a packet (Rule holds the matched
	// rule; Note is tableMiss instead when nothing matched).
	EvProcessed
	// EvPacketIn: a switch sent a packet_in to the controller.
	EvPacketIn
	// EvBuffered: a packet was parked in the switch buffer.
	EvBuffered
	// EvReleased: a buffered packet was released by packet_out.
	EvReleased
	// EvDropped: a packet was discarded by an explicit (controller-
	// sanctioned) drop action.
	EvDropped
	// EvVanished: a packet was output on a port with nothing attached —
	// an immediate black hole.
	EvVanished
	// EvCopied: flooding or multi-output duplicated a packet.
	EvCopied
	// EvCtrlInject: the controller injected a crafted packet
	// (packet_out without a buffer).
	EvCtrlInject
	// EvRuleInstalled / EvRuleDeleted: flow-table changes.
	EvRuleInstalled
	EvRuleDeleted
	// EvCtrlDispatch: the controller executed a handler for a message.
	EvCtrlDispatch
	// EvStats: the controller processed a stats reply (Stats holds the
	// concrete values used).
	EvStats
	// EvEnv: an environment event was applied.
	EvEnv
	// EvRuleExpired: a flow rule timed out (optional extension).
	EvRuleExpired
	// EvFaultDropped / EvFaultDuplicated / EvFaultReordered are the
	// fault model's environment events; packets lost or created by the
	// environment are accounted to it, not to the controller.
	EvFaultDropped
	EvFaultDuplicated
	EvFaultReordered
	// EvLinkDown / EvSwitchDown: topology faults.
	EvLinkDown
	EvSwitchDown
)

var eventNames = map[EventKind]string{
	EvHostSend: "host_send", EvDelivered: "delivered", EvHostMove: "host_move",
	EvArrive: "arrive", EvProcessed: "processed", EvPacketIn: "packet_in",
	EvBuffered: "buffered", EvReleased: "released", EvDropped: "dropped",
	EvVanished: "vanished", EvCopied: "copied", EvCtrlInject: "ctrl_inject",
	EvRuleInstalled: "rule_installed", EvRuleDeleted: "rule_deleted",
	EvCtrlDispatch: "ctrl_dispatch", EvStats: "stats", EvEnv: "env",
	EvRuleExpired: "rule_expired", EvFaultDropped: "fault_dropped",
	EvFaultDuplicated: "fault_duplicated", EvFaultReordered: "fault_reordered",
	EvLinkDown: "link_down", EvSwitchDown: "switch_down",
}

func (k EventKind) String() string {
	if n, ok := eventNames[k]; ok {
		return n
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// tableMiss is the Note of an EvProcessed event whose packet matched no
// rule.
const tableMiss = "miss"

// Event is one observable occurrence. Unused fields stay zero.
type Event struct {
	Kind  EventKind
	Host  openflow.HostID
	Sw    openflow.SwitchID
	Port  openflow.PortID
	Pkt   openflow.Packet
	Rule  openflow.Rule
	Msg   openflow.Msg
	Loc   topo.PortKey
	Stats []openflow.PortStats
	Note  string
}

func (e Event) String() string {
	switch e.Kind {
	case EvHostSend:
		return fmt.Sprintf("%v: %v sends (%s) at %v", e.Kind, e.Host, e.Pkt.Header, e.Loc)
	case EvDelivered:
		return fmt.Sprintf("%v: (%s) to %v at %v", e.Kind, e.Pkt.Header, e.Host, e.Loc)
	case EvHostMove:
		return fmt.Sprintf("%v: %v -> %v", e.Kind, e.Host, e.Loc)
	case EvArrive:
		return fmt.Sprintf("%v: (%s) at %v:%v", e.Kind, e.Pkt.Header, e.Sw, e.Port)
	case EvProcessed:
		rule := ""
		if e.Note != tableMiss {
			rule = e.Rule.Key()
		}
		return fmt.Sprintf("%v: %v (%s) rule=%q", e.Kind, e.Sw, e.Pkt.Header, rule)
	case EvPacketIn:
		return fmt.Sprintf("%v: %v port=%v (%s) reason=%s", e.Kind, e.Sw, e.Port, e.Pkt.Header, e.Msg.Reason)
	case EvRuleInstalled:
		return fmt.Sprintf("%v: %v %s", e.Kind, e.Sw, e.Rule)
	case EvStats:
		return fmt.Sprintf("%v: %v %v", e.Kind, e.Sw, e.Stats)
	default:
		return fmt.Sprintf("%v: sw=%v host=%v (%s) %s", e.Kind, e.Sw, e.Host, e.Pkt.Header, e.Note)
	}
}

// Property is a pluggable correctness property (§5): it observes every
// transition's events, may inspect global system state, keeps local
// state (copied along with the system as the search forks), and reports
// violations by returning a non-nil error. AtQuiescence runs on states
// with no enabled transitions — the "safe time" many definitions wait
// for to stay robust to in-flight delays (§5.2).
//
// Clone is the copy-on-write fork, under controller.App's contract: the
// copy may borrow the receiver's mutable state until its own first
// write, which must copy what it borrowed first, and it never writes the
// receiver, which the checker treats as frozen while the copy lives. A
// deep copy also meets it. Two more contract points come from forking:
// AtQuiescence must not mutate the property (it runs on shared
// instances; keep quiescence checks read-only and accumulate state in
// OnEvents), and properties may implement EventMasker to skip event
// deliveries — and the copy they imply — entirely.
type Property interface {
	Name() string
	Clone() Property
	OnEvents(sys *System, events []Event) error
	AtQuiescence(sys *System) error
	// StateKey folds the property's local state into the system hash so
	// state matching never merges states the property distinguishes.
	// It renders from scratch; the System caches the key's hash as the
	// controller runtime caches an app's key: a controller.Versioned
	// property is rendered again when its version moves, any other
	// after each batch delivered to it.
	StateKey() string
}

// EventMasker is implemented by properties that observe only a subset
// of event kinds. When a transition's event batch contains none of the
// masked kinds, the checker skips the property's OnEvents call — and,
// under copy-on-write forking, the property copy that delivery would
// force. The mask MUST cover every kind the property so much as reads
// (including kinds that only trigger violations), or violations will be
// missed; a mask of 0 declares a property whose OnEvents is a no-op.
// Properties not implementing the interface receive every batch.
type EventMasker interface {
	EventMask() uint64
}

// MaskOf builds an EventMask bitset from event kinds.
func MaskOf(kinds ...EventKind) uint64 {
	var m uint64
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	return m
}

// eventsMask folds a batch's kinds into one bitset.
func eventsMask(events []Event) uint64 {
	var m uint64
	for i := range events {
		m |= 1 << uint(events[i].Kind)
	}
	return m
}

// CheckEvents delivers a transition's events to the properties and
// returns their failures, in property order, each a Violation with no
// trace yet. This is the single property-delivery path shared by every
// engine: it applies the EventMasker filter and, under copy-on-write
// forking, owns each property (forcing its lazy copy) only when it
// actually receives the batch — properties untouched by a transition
// stay shared with the parent state.
func (s *System) CheckEvents(events []Event) []Violation {
	var fails []Violation
	m := eventsMask(events)
	for i := range s.props {
		if em, ok := s.props[i].p.(EventMasker); ok && em.EventMask()&m == 0 {
			continue
		}
		op := s.ownProp(i)
		if err := op.OnEvents(s, events); err != nil {
			fails = append(fails, Violation{Property: op.Name(), Err: err})
		}
	}
	return fails
}

// CheckQuiescence runs every property's AtQuiescence check (read-only
// by contract, so shared property instances are checked in place) and
// returns their failures, in property order, each a Violation with
// Quiescence set and no trace yet.
func (s *System) CheckQuiescence() []Violation {
	var fails []Violation
	for _, sl := range s.props {
		if err := sl.p.AtQuiescence(s); err != nil {
			fails = append(fails, Violation{Property: sl.p.Name(), Err: err, Quiescence: true})
		}
	}
	return fails
}
