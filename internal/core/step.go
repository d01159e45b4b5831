package core

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// Enabled enumerates the enabled transitions in deterministic order,
// already filtered and ordered by the active search strategies.
func (s *System) Enabled() []Transition { return s.EnabledInto(nil) }

// EnabledInto is Enabled with a caller-supplied buffer: transitions are
// appended to buf (reusing its backing array), so hot loops can pool
// the allocation. Transitions are self-contained values — callers may
// copy any of them and release the buffer.
func (s *System) EnabledInto(buf []Transition) []Transition {
	ts := buf[:0]

	// Host transitions.
	for i, h := range s.hosts {
		id := s.hostIDs[i]
		if h.CanSend() {
			if s.cfg.DisableSE {
				for _, hdr := range h.NextRepertoire() {
					ts = append(ts, Transition{Kind: THostSend, Host: id, Hdr: hdr})
				}
			} else if pkts, ok := s.caches.packets.get(s.packetsKey(h)); ok {
				for _, hdr := range pkts {
					ts = append(ts, Transition{Kind: THostSend, Host: id, Hdr: hdr})
				}
			} else {
				ts = append(ts, Transition{Kind: THostDiscover, Host: id})
			}
		}
		if h.CanReply() {
			ts = append(ts, Transition{Kind: THostReply, Host: id, Hdr: h.PendingReplies[0]})
		}
		if len(h.MoveTargets) > 0 {
			ts = append(ts, Transition{Kind: THostMove, Host: id, MoveTo: h.MoveTargets[0]})
		}
	}

	// Controller transitions. Iterating the sorted switch IDs and
	// peeking each channel head is equivalent to PendingIn() (messages
	// only come from known switches) without allocating the ID list.
	for _, sw := range s.swIDs {
		head, ok := s.ctrl.HeadIn(sw)
		if !ok {
			continue
		}
		if head.Type == openflow.MsgStatsReply && !s.cfg.DisableSE && !s.cfg.NoDelay {
			if variants, ok := s.caches.stats.get(s.statsKey(sw)); ok {
				for _, v := range variants {
					ts = append(ts, Transition{Kind: TCtrlProcessStats, Sw: sw, Stats: v})
				}
			} else {
				ts = append(ts, Transition{Kind: TCtrlDiscoverStats, Sw: sw})
			}
			continue
		}
		ts = append(ts, Transition{Kind: TCtrlDispatch, Sw: sw})
	}

	// Environment transitions.
	if env, ok := s.ctrl.App.(controller.EnvApp); ok {
		for _, name := range env.EnvEvents() {
			ts = append(ts, Transition{Kind: TCtrlEnv, Env: name})
		}
	}

	// Switch transitions.
	for i, sw := range s.switches {
		id := s.swIDs[i]
		if !sw.Alive {
			continue
		}
		// process_pkt: one per switch with a queued packet, or one per
		// such port under MicroSteps.
		for _, p := range sw.Ports {
			if len(sw.QueuedPackets(p)) == 0 {
				continue
			}
			if s.cfg.MicroSteps {
				ts = append(ts, Transition{Kind: TSwitchProcessPort, Sw: id, Port: p})
				continue
			}
			ts = append(ts, Transition{Kind: TSwitchProcess, Sw: id})
			break
		}
		if head, ok := s.ctrl.HeadOut(id); ok {
			ts = append(ts, Transition{Kind: TSwitchOF, Sw: id, seq: head.Seq})
		}
		if s.cfg.EnableTimers && sw.Table.Len() > 0 {
			ts = append(ts, Transition{Kind: TSwitchTick, Sw: id})
		}
	}

	ts = s.faultTransitions(ts)
	ts = s.applyFlowIR(ts)
	ts = s.applyUnusual(ts)
	return ts
}

// applyFlowIR suppresses packet-sending (and grouped environment)
// transitions whose effective flow group precedes the scheduling mark,
// exploring exactly one relative ordering between independent groups
// (§4 FLOW-IR).
func (s *System) applyFlowIR(ts []Transition) []Transition {
	if s.cfg.FlowGroupKey == nil {
		return ts
	}
	out := ts[:0]
	for _, t := range ts {
		switch t.Kind {
		case THostSend, THostReply:
			if s.effectiveGroup(t.Hdr, false) < s.lastGroup {
				continue
			}
		case TCtrlEnv:
			if s.cfg.EnvGroupKey != nil && s.cfg.EnvGroupKey(t.Env) < s.lastGroup {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// groupEntryHash is one groupCounts entry's term of groupDigest.
func groupEntryHash(key string, n int) uint64 {
	return canon.NewMix(0).Str(key).Word(uint64(n)).Sum()
}

// effectiveGroup computes a header's instanced group key; when advance
// is true a new-instance packet bumps its key's counter first.
func (s *System) effectiveGroup(hdr openflow.Header, advance bool) string {
	key, newInstance := s.cfg.FlowGroupKey(hdr)
	n := s.groupCounts[key]
	if newInstance {
		if advance {
			s.ownGroupCounts()
			s.groupCounts[key] = n + 1
			if n > 0 {
				s.groupDigest -= groupEntryHash(key, n)
			}
			s.groupDigest += groupEntryHash(key, n+1)
		}
		n++
	}
	b := make([]byte, 0, len(key)+5)
	b = append(b, key...)
	b = append(b, '#')
	if n < 1000 { // zero-pad to 4 digits, as %04d did
		b = append(b, '0')
		if n < 100 {
			b = append(b, '0')
		}
		if n < 10 {
			b = append(b, '0')
		}
	}
	b = strconv.AppendInt(b, int64(n), 10)
	return string(b)
}

// applyUnusual reorders exploration so that unusual delays come first:
// packet and host transitions before controller→switch deliveries, and
// deliveries in reverse issue order across switches (§4 UNUSUAL). It is
// a depth-first priority, not a filter — full searches still cover every
// ordering; violation hunts reach races much sooner.
func (s *System) applyUnusual(ts []Transition) []Transition {
	if !s.cfg.Unusual {
		return ts
	}
	slices.SortStableFunc(ts, func(a, b Transition) int {
		if c := cmp.Compare(unusualClass(a), unusualClass(b)); c != 0 {
			return c
		}
		if a.Kind == TSwitchOF && b.Kind == TSwitchOF {
			return cmp.Compare(b.seq, a.seq) // most recently issued first
		}
		return 0
	})
	return ts
}

func unusualClass(t Transition) int {
	switch t.Kind {
	case TSwitchOF:
		return 2
	case TCtrlDispatch, TCtrlProcessStats, TCtrlDiscoverStats:
		return 1
	default:
		return 0
	}
}

// Quiescent reports whether the state has no enabled transitions.
func (s *System) Quiescent() bool { return len(s.Enabled()) == 0 }

// Apply executes one transition in place, returning its events.
func (s *System) Apply(t Transition) []Event { return s.ApplyInto(t, nil) }

// ApplyInto is Apply with a caller-supplied event buffer: events are
// appended to buf (reusing its backing array), so hot loops can pool
// the allocation. The returned slice is only valid until the next
// ApplyInto call that reuses buf; nothing in the system retains it.
func (s *System) ApplyInto(t Transition, buf []Event) []Event {
	events := buf[:0]
	switch t.Kind {
	case THostSend:
		s.ownHost(t.Host).ConsumeSend()
		s.markGroup(t.Hdr)
		s.inject(t.Host, t.Hdr, &events)
	case THostReply:
		hdr := s.ownHost(t.Host).TakeReply()
		s.markGroup(hdr)
		s.inject(t.Host, hdr, &events)
	case THostDiscover:
		events = append(events, Event{Kind: EvCtrlDispatch, Host: t.Host,
			Note: "discover_packets: " + strconv.Itoa(len(s.packetClasses(s.Host(t.Host)))) + " classes"})
	case THostMove:
		h := s.ownHost(t.Host)
		old := h.Loc
		loc, ok := h.Move()
		if !ok {
			panic("core: move transition on immobile host")
		}
		// The vacated port goes down (unless a link or another host
		// still occupies it); the new port comes up.
		if !s.portOccupied(old) {
			s.ownSwitch(old.Sw).SetPortUp(old.Port, false)
			s.notifyPortStatus(old, false)
		}
		s.ownSwitch(loc.Sw).SetPortUp(loc.Port, true)
		s.notifyPortStatus(loc, true)
		events = append(events, Event{Kind: EvHostMove, Host: t.Host, Loc: loc})
	case TCtrlDispatch:
		ctrl := s.ownCtrl()
		msg, ok := ctrl.PopIn(t.Sw)
		if !ok {
			panic("core: ctrl_dispatch with empty channel")
		}
		events = append(events, Event{Kind: EvCtrlDispatch, Sw: t.Sw, Msg: msg})
		ctrl.Dispatch(msg)
		s.noDelayFixpoint(&events)
	case TCtrlDiscoverStats:
		events = append(events, Event{Kind: EvCtrlDispatch, Sw: t.Sw,
			Note: "discover_stats: " + strconv.Itoa(len(s.statsClasses(t.Sw))) + " classes"})
	case TCtrlProcessStats:
		ctrl := s.ownCtrl()
		msg, ok := ctrl.PopIn(t.Sw)
		if !ok || msg.Type != openflow.MsgStatsReply {
			panic("core: process_stats without pending stats reply")
		}
		events = append(events, Event{Kind: EvStats, Sw: t.Sw, Stats: t.Stats})
		ctrl.DispatchStats(t.Sw, t.Stats)
		s.noDelayFixpoint(&events)
	case TCtrlEnv:
		events = append(events, Event{Kind: EvEnv, Note: t.Env})
		s.markEnvGroup(t.Env)
		s.ownCtrl().DispatchEnv(t.Env)
		if s.cfg.AtomicEnv {
			s.drainOutbound(&events)
		}
		s.noDelayFixpoint(&events)
	case TSwitchProcess:
		s.ownSwitch(t.Sw).ProcessPacketsInto(&s.alloc, &s.res)
		s.route(t.Sw, &s.res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchProcessPort:
		if !s.ownSwitch(t.Sw).ProcessPacketOnPortInto(t.Port, &s.alloc, &s.res) {
			panic("core: process_pkt_port with empty channel")
		}
		s.route(t.Sw, &s.res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchOF:
		msg, ok := s.ownCtrl().PopOut(t.Sw)
		if !ok {
			panic("core: process_of with empty channel")
		}
		s.ownSwitch(t.Sw).ApplyOFInto(msg, &s.alloc, &s.res)
		s.route(t.Sw, &s.res, &events)
		s.noDelayFixpoint(&events)
	case TSwitchTick:
		for _, r := range s.ownSwitch(t.Sw).ExpireTimers() {
			events = append(events, Event{Kind: EvRuleExpired, Sw: t.Sw, Rule: r})
		}
	case TFaultDrop, TFaultDuplicate, TFaultReorder, TFaultLinkDown, TFaultSwitchDown:
		events = s.applyFault(t, events)
	default:
		panic(fmt.Sprintf("core: unknown transition %v", t.Kind))
	}
	return events
}

// portOccupied reports whether anything (link or host) is still attached
// to a port.
func (s *System) portOccupied(k topo.PortKey) bool {
	if _, ok := s.cfg.Topo.Peer(k); ok {
		return true
	}
	for _, h := range s.hosts {
		if h.Loc == k {
			return true
		}
	}
	return false
}

// notifyPortStatus sends a port_status event to the controller when the
// configuration asks for it.
func (s *System) notifyPortStatus(k topo.PortKey, up bool) {
	if !s.cfg.EnablePortStatus {
		return
	}
	s.ownCtrl().DeliverToController(openflow.Msg{
		Type: openflow.MsgPortStatus, Switch: k.Sw, InPort: k.Port, PortUp: up,
	})
}

func (s *System) markGroup(hdr openflow.Header) {
	if s.cfg.FlowGroupKey != nil {
		s.lastGroup = s.effectiveGroup(hdr, true)
	}
}

func (s *System) markEnvGroup(event string) {
	if s.cfg.FlowGroupKey != nil && s.cfg.EnvGroupKey != nil {
		s.lastGroup = s.cfg.EnvGroupKey(event)
	}
}

// inject places a host-sent packet on the ingress channel at the host's
// current location.
func (s *System) inject(host openflow.HostID, hdr openflow.Header, events *[]Event) {
	h := s.Host(host)
	id := s.alloc.Next()
	pkt := openflow.Packet{Header: hdr, ID: id, Orig: id}
	*events = append(*events, Event{Kind: EvHostSend, Host: host, Pkt: pkt, Loc: h.Loc})
	sw := s.ownSwitch(h.Loc.Sw)
	sw.Enqueue(h.Loc.Port, pkt)
	*events = append(*events, Event{Kind: EvArrive, Sw: h.Loc.Sw, Port: h.Loc.Port, Pkt: pkt})
}

// route applies a switch's processing effects to the rest of the system:
// controller messages onto the OpenFlow channel, egress packets onto
// links, hosts, or the void. res is s's scratch result: route copies
// every element it keeps (events by value, messages and packets into
// queues), so the next transition may refill it.
func (s *System) route(swID openflow.SwitchID, res *openflow.ProcResult, events *[]Event) {
	for _, pkt := range res.Dropped {
		*events = append(*events, Event{Kind: EvDropped, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Copies {
		*events = append(*events, Event{Kind: EvCopied, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Injected {
		*events = append(*events, Event{Kind: EvCtrlInject, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Buffered {
		*events = append(*events, Event{Kind: EvBuffered, Sw: swID, Pkt: pkt})
	}
	for _, pkt := range res.Released {
		*events = append(*events, Event{Kind: EvReleased, Sw: swID, Pkt: pkt})
	}
	for _, idx := range res.Matched {
		ev := Event{Kind: EvProcessed, Sw: swID, Note: tableMiss}
		if idx >= 0 {
			// The rule travels by value and Event.String renders it on
			// demand; nothing on the search path reads it.
			ev.Rule, ev.Note = s.Switch(swID).Table.Rules()[idx], ""
		}
		*events = append(*events, ev)
	}
	for _, r := range res.InstalledRules {
		*events = append(*events, Event{Kind: EvRuleInstalled, Sw: swID, Rule: r})
	}
	if res.DeletedRules > 0 {
		*events = append(*events, Event{Kind: EvRuleDeleted, Sw: swID,
			Note: strconv.Itoa(res.DeletedRules)})
	}
	for _, m := range res.ToController {
		if m.Type == openflow.MsgPacketIn {
			*events = append(*events, Event{Kind: EvPacketIn, Sw: swID, Port: m.InPort,
				Pkt: m.Packet, Msg: m})
		}
		s.ownCtrl().DeliverToController(m)
	}
	for _, out := range res.Outputs {
		s.deliver(swID, out, events)
	}
}

// deliver resolves one egress: a switch-switch link, a host at the
// far end, or nothing (an immediate black hole).
func (s *System) deliver(swID openflow.SwitchID, out openflow.PortOutput, events *[]Event) {
	here := topo.PortKey{Sw: swID, Port: out.Port}
	if peer, ok := s.cfg.Topo.Peer(here); ok {
		if !s.Switch(peer.Sw).Alive {
			// The far end is a failed switch: environment loss.
			*events = append(*events, Event{Kind: EvFaultDropped, Sw: peer.Sw,
				Port: peer.Port, Pkt: out.Pkt})
			return
		}
		s.ownSwitch(peer.Sw).Enqueue(peer.Port, out.Pkt)
		*events = append(*events, Event{Kind: EvArrive, Sw: peer.Sw, Port: peer.Port, Pkt: out.Pkt})
		return
	}
	for i, h := range s.hosts {
		if h.Loc == here {
			id := s.hostIDs[i]
			s.ownHost(id).Receive(out.Pkt.Header)
			*events = append(*events, Event{Kind: EvDelivered, Host: id, Pkt: out.Pkt, Loc: here})
			return
		}
	}
	*events = append(*events, Event{Kind: EvVanished, Sw: swID, Port: out.Port, Pkt: out.Pkt})
}

// noDelayFixpoint implements NO-DELAY (§4): after any transition that
// put messages on a controller channel, drain both directions to
// completion so the exchange is atomic and the system runs in lock step.
func (s *System) noDelayFixpoint(events *[]Event) {
	if !s.cfg.NoDelay {
		return
	}
	s.drainControllerChannels(events)
}

// drainOutbound applies all currently queued controller→switch messages
// (and only those) within the current transition, reporting whether
// there were any.
func (s *System) drainOutbound(events *[]Event) (progress bool) {
	// Iterating the sorted switch IDs matches PendingOut() order
	// without allocating the pending list.
	for _, sw := range s.swIDs {
		for {
			if _, ok := s.ctrl.HeadOut(sw); !ok {
				break
			}
			msg, _ := s.ownCtrl().PopOut(sw)
			s.ownSwitch(sw).ApplyOFInto(msg, &s.alloc, &s.res)
			s.route(sw, &s.res, events)
			progress = true
		}
	}
	return progress
}

// drainControllerChannels applies all pending controller→switch messages
// and dispatches all pending switch→controller messages until both
// directions are empty. Boot runs it regardless of strategy, so
// join-time rule setup completes before exploration.
func (s *System) drainControllerChannels(events *[]Event) {
	for {
		progress := s.drainOutbound(events)
		for _, sw := range s.swIDs {
			if _, ok := s.ctrl.HeadIn(sw); !ok {
				continue
			}
			ctrl := s.ownCtrl()
			msg, _ := ctrl.PopIn(sw)
			*events = append(*events, Event{Kind: EvCtrlDispatch, Sw: sw, Msg: msg})
			ctrl.Dispatch(msg)
			progress = true
		}
		if !progress {
			return
		}
	}
}
