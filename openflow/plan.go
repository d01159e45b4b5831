package openflow

// This file predicts, without mutating the switch, the packet motion a
// process_pkt or process_of transition would cause. The model checker's
// partial-order reduction (internal/core) builds transition footprints
// from these plans: a table miss only talks to the controller, a match
// only touches the matched rule's egress ports — far tighter than
// assuming every processing step may reach every neighbour.
//
// The prediction is exact, not an over-approximation: Table.Lookup is
// pure, action lists are static, and flooding depends only on current
// link state, so a plan names precisely the ports the real transition
// would emit on and precisely the side effects it would have.

// ProcPlan summarizes the externally visible effects one switch
// transition would have, computed read-only by ProcessPlan,
// ProcessPortPlan or OFPlan.
type ProcPlan struct {
	// Outputs lists the egress ports at least one packet would be
	// emitted on (one entry per emission; duplicates possible).
	Outputs []PortID
	// Miss is true when a packet would be parked in the switch buffer
	// with a packet_in sent to the controller — a table miss or an
	// explicit ActionController.
	Miss bool
	// Hit is true when some packet would match a rule (bumping its
	// counters).
	Hit bool
	// Drop is true when some packet would be discarded (empty or
	// rewrite-only action list, explicit drop).
	Drop bool
	// Copies is true when forwarding would allocate fresh packet IDs
	// (multi-port output or flood emits copies).
	Copies bool
	// Inject is true when a buffer-less packet_out would inject a
	// controller-crafted packet (which also allocates a fresh ID).
	Inject bool
	// Release is true when a packet_out would release a buffered packet.
	Release bool
}

// ProcessPlan predicts ProcessPackets: the head packet of every
// non-empty ingress channel, looked up against the flow table. buf, if
// non-nil, backs the Outputs slice.
func (s *Switch) ProcessPlan(buf []PortID) ProcPlan {
	pl := ProcPlan{Outputs: buf[:0]}
	for _, p := range s.Ports {
		if q := s.in.Queue(p); len(q) > 0 {
			pl = s.planOne(pl, q[0], p)
		}
	}
	return pl
}

// ProcessPortPlan predicts ProcessPacketOnPortInto for port p. ok is false
// when the port's channel is empty (the transition is disabled).
func (s *Switch) ProcessPortPlan(p PortID, buf []PortID) (ProcPlan, bool) {
	pl := ProcPlan{Outputs: buf[:0]}
	q := s.in.Queue(p)
	if len(q) == 0 {
		return pl, false
	}
	return s.planOne(pl, q[0], p), true
}

// OFPlan predicts ApplyOFInto for a packet_out message. ok is false for
// every other message type — those are either table-only (flow_mod),
// pure replies (barrier, stats), or unknown, and the caller decides.
func (s *Switch) OFPlan(m Msg, buf []PortID) (ProcPlan, bool) {
	pl := ProcPlan{Outputs: buf[:0]}
	if m.Type != MsgPacketOut {
		return pl, false
	}
	inPort := m.InPort
	if m.Buffer != BufferNone {
		found := false
		for _, e := range s.buffer.View() {
			if e.ID == m.Buffer {
				inPort = e.InPort
				found = true
				break
			}
		}
		if !found {
			// Releasing an unknown (already-released) buffer is a no-op.
			return pl, true
		}
		pl.Release = true
	} else {
		pl.Inject = true
	}
	return s.planActions(pl, m.Actions, inPort), true
}

// planOne mirrors processOne: lookup, then the matched rule's actions.
// The plan goes in and comes back by value, so the caller's Outputs
// buffer stays where the caller put it (a pointer would leak it).
func (s *Switch) planOne(pl ProcPlan, pkt Packet, inPort PortID) ProcPlan {
	idx, ok := s.Table.Lookup(pkt.Header, inPort)
	if !ok {
		pl.Miss = true
		return pl
	}
	pl.Hit = true
	return s.planActions(pl, s.Table.Rules()[idx].Actions, inPort)
}

// planActions mirrors applyActions' port and allocation behaviour.
// Header rewrites (ActionSetField) move no packets and need no entry;
// the second and every later emission of one packet is a fresh copy.
func (s *Switch) planActions(pl ProcPlan, actions []Action, inPort PortID) ProcPlan {
	emitted := 0
	for _, a := range actions {
		switch a.Type {
		case ActionOutput:
			pl.Outputs = append(pl.Outputs, a.Port)
			emitted++
		case ActionFlood:
			for _, p := range s.Ports {
				if p != inPort && s.PortUp(p) {
					pl.Outputs = append(pl.Outputs, p)
					emitted++
				}
			}
		case ActionDrop:
			if emitted == 0 {
				pl.Drop = true
			}
			if emitted > 1 {
				pl.Copies = true
			}
			return pl
		case ActionController:
			pl.Miss = true
			emitted++
		}
	}
	if emitted == 0 {
		pl.Drop = true
	}
	if emitted > 1 {
		pl.Copies = true
	}
	return pl
}
