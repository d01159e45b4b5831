package core

import (
	"fmt"

	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// FaultModel enables the optional channel fault transitions of §2.2.2:
// "Packet channels have an optionally-enabled fault model that can drop,
// duplicate, or reorder packets, or fail the link. The channel with the
// controller offers reliable, in-order delivery of OpenFlow messages,
// except for optional switch failures."
//
// Every kind is budgeted per execution so the state space stays finite;
// zero budgets (the default) disable the transitions entirely — the
// paper's own setting when checking NoBlackHoles ("for simplicity, we
// disable optional packet drops and duplication on the channels").
type FaultModel struct {
	// MaxDrops bounds packet-loss transitions on ingress channels.
	MaxDrops int
	// MaxDuplicates bounds packet-duplication transitions.
	MaxDuplicates int
	// MaxReorders bounds head-of-channel reorder transitions.
	MaxReorders int
	// MaxLinkFailures bounds link-down transitions (both endpoints go
	// down; the controller learns via port_status when
	// EnablePortStatus is set).
	MaxLinkFailures int
	// MaxSwitchFailures bounds whole-switch failures: the switch's
	// state is cleared and the controller receives switch_leave.
	MaxSwitchFailures int
}

func (f FaultModel) enabled() bool {
	return f.MaxDrops > 0 || f.MaxDuplicates > 0 || f.MaxReorders > 0 ||
		f.MaxLinkFailures > 0 || f.MaxSwitchFailures > 0
}

// faultState is the per-execution fault budget usage (part of the
// hashed system state: two states that differ only in remaining fault
// budget behave differently).
type faultState struct {
	drops, dups, reorders, linkFails, switchFails int
}

func (f faultState) key() string {
	return fmt.Sprintf("f%d,%d,%d,%d,%d", f.drops, f.dups, f.reorders, f.linkFails, f.switchFails)
}

// faultTransitions appends the enabled fault transitions to ts.
func (s *System) faultTransitions(ts []Transition) []Transition {
	fm := s.cfg.Faults
	if !fm.enabled() {
		return ts
	}
	for i, sw := range s.switches {
		id := s.swIDs[i]
		if !sw.Alive {
			continue
		}
		for _, p := range sw.Ports {
			if len(sw.QueuedPackets(p)) == 0 {
				continue
			}
			if s.faults.drops < fm.MaxDrops {
				ts = append(ts, Transition{Kind: TFaultDrop, Sw: id, Port: p})
			}
			if s.faults.dups < fm.MaxDuplicates {
				ts = append(ts, Transition{Kind: TFaultDuplicate, Sw: id, Port: p})
			}
			if s.faults.reorders < fm.MaxReorders && len(sw.QueuedPackets(p)) >= 2 {
				ts = append(ts, Transition{Kind: TFaultReorder, Sw: id, Port: p})
			}
		}
		if s.faults.switchFails < fm.MaxSwitchFailures {
			ts = append(ts, Transition{Kind: TFaultSwitchDown, Sw: id})
		}
	}
	if s.faults.linkFails < fm.MaxLinkFailures {
		for _, l := range s.cfg.Topo.Links() {
			if s.Switch(l.A.Sw).PortUp(l.A.Port) {
				ts = append(ts, Transition{Kind: TFaultLinkDown, Sw: l.A.Sw, Port: l.A.Port})
			}
		}
	}
	return ts
}

// applyFault executes one fault transition, appending to events.
func (s *System) applyFault(t Transition, events []Event) []Event {
	switch t.Kind {
	case TFaultDrop:
		pkt, ok := s.ownSwitch(t.Sw).DropHead(t.Port)
		if !ok {
			panic("core: fault drop on empty channel")
		}
		s.faults.drops++
		events = append(events, Event{Kind: EvFaultDropped, Sw: t.Sw, Port: t.Port, Pkt: pkt})
	case TFaultDuplicate:
		dup, ok := s.ownSwitch(t.Sw).DupHead(t.Port, &s.alloc)
		if !ok {
			panic("core: fault duplicate on empty channel")
		}
		s.faults.dups++
		events = append(events, Event{Kind: EvFaultDuplicated, Sw: t.Sw, Port: t.Port, Pkt: dup})
	case TFaultReorder:
		if !s.ownSwitch(t.Sw).SwapHead(t.Port) {
			panic("core: fault reorder on short channel")
		}
		s.faults.reorders++
		events = append(events, Event{Kind: EvFaultReordered, Sw: t.Sw, Port: t.Port})
	case TFaultLinkDown:
		s.faults.linkFails++
		here := topo.PortKey{Sw: t.Sw, Port: t.Port}
		peer, ok := s.cfg.Topo.Peer(here)
		if !ok {
			panic("core: link failure on a non-link port")
		}
		s.ownSwitch(here.Sw).SetPortUp(here.Port, false)
		s.ownSwitch(peer.Sw).SetPortUp(peer.Port, false)
		s.notifyPortStatus(here, false)
		s.notifyPortStatus(peer, false)
		events = append(events, Event{Kind: EvLinkDown, Sw: t.Sw, Port: t.Port,
			Note: peer.String()})
	case TFaultSwitchDown:
		s.faults.switchFails++
		sw := s.ownSwitch(t.Sw)
		sw.Alive = false
		sw.MarkDirty() // Alive and Table are mutated directly below
		// The failed switch loses its soft state: rules, queued
		// packets and buffered packets are gone (environment loss),
		// and its ports — including the far ends of its links — go
		// down. (Table.Delete copy-on-writes its own rule storage.)
		sw.Table.Delete(openflow.MatchAll())
		for _, p := range sw.Ports {
			for {
				pkt, ok := sw.DropHead(p)
				if !ok {
					break
				}
				events = append(events, Event{Kind: EvFaultDropped, Sw: t.Sw, Port: p, Pkt: pkt})
			}
		}
		for _, e := range sw.TakeAllBuffered() {
			events = append(events, Event{Kind: EvFaultDropped, Sw: t.Sw, Port: e.InPort, Pkt: e.Pkt})
		}
		for _, p := range sw.Ports {
			here := topo.PortKey{Sw: t.Sw, Port: p}
			sw.SetPortUp(p, false)
			if peer, ok := s.cfg.Topo.Peer(here); ok {
				s.ownSwitch(peer.Sw).SetPortUp(peer.Port, false)
				s.notifyPortStatus(peer, false)
			}
		}
		s.ownCtrl().DeliverToController(openflow.Msg{Type: openflow.MsgSwitchLeave, Switch: t.Sw})
		events = append(events, Event{Kind: EvSwitchDown, Sw: t.Sw})
	default:
		panic(fmt.Sprintf("core: not a fault transition: %v", t.Kind))
	}
	return events
}
