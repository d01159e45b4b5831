package core

import (
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// This file is the dependence relation underlying dynamic partial-order
// reduction (dpor_dfs.go): a static, conservative footprint estimator
// over the model's component space. Two enabled transitions are
// independent — safely commutable without changing the set of reachable
// fingerprints or the violated-property set — iff their footprints do
// not conflict. The component space reuses the same decomposition the
// incremental fingerprint already hashes per component (switches,
// controller channels, application state, hosts, properties), so a
// footprint is literally "which fingerprint components this transition
// may read or write".

// Reduction selects an optional interleaving-reduction layer applied on
// top of the paper's search strategies (NO-DELAY, UNUSUAL, FLOW-IR live
// inside System.EnabledInto and are orthogonal).
type Reduction int

const (
	// ReductionNone explores every enabled transition at every state —
	// the paper's searches, unchanged. The default.
	ReductionNone Reduction = iota
	// ReductionDPOR enables dynamic partial-order reduction: sleep sets
	// plus Flanagan–Godefroid backtrack sets in the sequential checker
	// (pruning both transitions and states), and sleep-set transition
	// pruning in the parallel engine. Sound for the checked properties:
	// the violated-property set is preserved exactly.
	ReductionDPOR
)

func (r Reduction) String() string {
	if r == ReductionDPOR {
		return "dpor"
	}
	return "none"
}

// PacketIDOblivious marks a Property whose observer state, state key and
// error texts are invariant under renaming of packet IDs (openflow
// Packet.ID / Packet.Orig) — it judges packets by header content only.
// Packet IDs are allocated from a global counter, so two otherwise
// independent packet-creating transitions assign swapped IDs when
// reordered; only properties that track individual packet lineages can
// observe the difference. When every attached property is oblivious the
// allocator is excluded from the dependence relation (IDs appear nowhere
// in state fingerprints); one non-oblivious property makes every
// potentially-allocating transition pair dependent.
//
// The interface is satisfied structurally — external properties can opt
// in without importing this package.
type PacketIDOblivious interface {
	// PacketIDOblivious reports whether the property ignores packet IDs;
	// implementations return true (the method's presence is the claim,
	// the value allows a dynamic opt-out).
	PacketIDOblivious() bool
}

// compSet is a bitset over the component space (at most 128 components;
// larger models overflow to the all-conflicting global footprint).
type compSet [2]uint64

func (c *compSet) add(bit int)     { c[bit>>6] |= 1 << uint(bit&63) }
func (c *compSet) union(o compSet) { c[0] |= o[0]; c[1] |= o[1] }

func (c compSet) intersects(o compSet) bool {
	return c[0]&o[0] != 0 || c[1]&o[1] != 0
}

// footprint is one transition's read/write component sets.
type footprint struct {
	r, w compSet
}

func (f *footprint) addRW(bit int) { f.r.add(bit); f.w.add(bit) }

func (f *footprint) union(o footprint) {
	f.r.union(o.r)
	f.w.union(o.w)
}

// Dependent reports whether two transitions (by footprint) may fail to
// commute: a write of one meets a read or write of the other. Enabledness
// of a transition is folded into its read set, so independence also
// guarantees that neither enables or disables the other.
func Dependent(a, b footprint) bool {
	return a.w.intersects(b.w) || a.w.intersects(b.r) || a.r.intersects(b.w)
}

// Fixed component bits; per-switch and per-host bits follow. The
// "global" footprint — used for transitions whose effects are not worth
// bounding (moves, faults, NO-DELAY fixpoints) — is all-ones rather
// than a dedicated bit: it conflicts with every non-empty footprint.
const (
	compCtrlApp = iota
	compAlloc   // the global packet-ID allocator (ID-sensitive props only)
	compFlowIR  // FLOW-IR's lastGroup/groupCounts scheduling state
	compFixed
)

// componentSpace maps model components to bit positions and carries the
// static facts the footprint estimator needs. It is immutable after
// construction and safe to share across workers.
type componentSpace struct {
	cfg   *Config
	nsw   int
	nhost int
	nprop int

	// Per-switch component bits (swStride per switch). The queue-bearing
	// state splits FIFO-style into head and tail halves: an append
	// touches the tail, a dequeue the head, and either one also touches
	// the other half when it changes a queue's emptiness (append to
	// empty, dequeue to empty). A sender and a consumer of the same
	// non-empty channel therefore commute — the standard message-passing
	// independence — while two appends (ordering) or two dequeues still
	// conflict. The ingress halves additionally spread over nbuck
	// per-port hash buckets (bucket = port mod nbuck), so traffic on
	// distinct ports of ONE switch can commute too — essential for star
	// topologies where every host shares a switch. Bucket collisions
	// only add conflicts, never remove them, so any nbuck ≥ 1 is sound;
	// nbuck adapts to the leftover bit budget. swState covers the
	// switch's non-queue state: flow table, packet buffer, link map,
	// liveness.
	//
	// Per-switch layout: +0 swState, +1..+nbuck ingress head buckets,
	// +nbuck+1..+2·nbuck ingress tail buckets, then ctrl-in head/tail
	// and ctrl-out head/tail.
	swBase   int
	swStride int
	nbuck    int
	hostBase int
	propBase int
	appBase  int // per-switch app partitions (appParts only)

	// countersHashed: rule counters are part of state identity, so a
	// flow-table hit writes the switch's state component.
	countersHashed bool

	// appParts: the application claims per-switch state partitioning
	// (controller.StatePartition), so handling switch i's messages
	// touches app partition i instead of the whole app component.
	appParts bool
	// allApp is the whole-app access set: compCtrlApp plus every
	// partition bit (whole-state reads must conflict with partition
	// writes).
	allApp compSet

	// overflow: the component count exceeds 128 bits — every footprint
	// degenerates to global (DPOR explores exactly the unreduced space).
	overflow bool
	// idSensitive: some attached property tracks packet IDs, so the
	// allocator participates in the dependence relation.
	idSensitive bool

	// peers[i] lists switch indices link-adjacent to switch i (static
	// over-approximation: link/switch failures only remove edges).
	peers [][]int

	// emitIdx[i] lists the switch indices a dispatch from switch i may
	// emit to; nil (emitAll=true) when the application makes no
	// emission-scope claim.
	emitIdx [][]int
	emitAll bool

	// propMasks[k] is property k's observed-event mask (all ones when
	// the property declares none).
	propMasks []uint64

	global footprint
}

// newComponentSpace derives the component space from a root state.
func newComponentSpace(sys *System) *componentSpace {
	cfg := sys.cfg
	sp := &componentSpace{
		cfg:   cfg,
		nsw:   len(sys.swIDs),
		nhost: len(sys.hostIDs),
		nprop: len(sys.props),
	}
	sp.countersHashed = cfg.NoSwitchReduction
	claimed := false
	if p, ok := cfg.App.(controller.StatePartition); ok && p.PartitionedBySwitch() {
		claimed = true
	}
	// Spend whatever bit budget is left after the fixed, host, property
	// and app-partition components on ingress port buckets (1..4 per
	// queue half per switch).
	sp.nbuck = 1
	if sp.nsw > 0 {
		others := compFixed + sp.nhost + sp.nprop
		if claimed {
			others += sp.nsw
		}
		if h := (128 - others - 5*sp.nsw) / (2 * sp.nsw); h > 1 {
			sp.nbuck = h
		}
		if sp.nbuck > 4 {
			sp.nbuck = 4
		}
	}
	sp.swStride = 5 + 2*sp.nbuck
	sp.swBase = compFixed
	sp.hostBase = sp.swBase + sp.swStride*sp.nsw
	sp.propBase = sp.hostBase + sp.nhost
	sp.appBase = sp.propBase + sp.nprop
	total := sp.appBase
	if claimed {
		sp.appParts = true
		total += sp.nsw
	}
	if total > 128 {
		sp.overflow = true
		sp.appParts = false
	}
	sp.allApp.add(compCtrlApp)
	if sp.appParts {
		for i := 0; i < sp.nsw; i++ {
			sp.allApp.add(sp.appBase + i)
		}
	}
	sp.global = footprint{r: compSet{^uint64(0), ^uint64(0)}, w: compSet{^uint64(0), ^uint64(0)}}

	sp.propMasks = make([]uint64, 0, sp.nprop)
	for _, p := range sys.props {
		if ob, ok := p.(PacketIDOblivious); !ok || !ob.PacketIDOblivious() {
			sp.idSensitive = true
		}
		mask := ^uint64(0)
		if m, ok := p.(EventMasker); ok {
			mask = m.EventMask()
		}
		sp.propMasks = append(sp.propMasks, mask)
	}
	sp.peers = make([][]int, sp.nsw)
	for _, l := range cfg.Topo.Links() {
		a, b := sys.swIndex(l.A.Sw), sys.swIndex(l.B.Sw)
		if a < 0 || b < 0 || a == b {
			continue
		}
		sp.peers[a] = append(sp.peers[a], b)
		sp.peers[b] = append(sp.peers[b], a)
	}

	sp.emitAll = true
	if scope, ok := cfg.App.(controller.EmissionScope); ok {
		emitIdx := make([][]int, sp.nsw)
		ok := true
		for i, id := range sys.swIDs {
			targets, claimed := scope.EmitsTo(id)
			if !claimed {
				ok = false
				break
			}
			for _, t := range targets {
				if j := sys.swIndex(t); j >= 0 {
					emitIdx[i] = append(emitIdx[i], j)
				} else {
					ok = false
				}
			}
		}
		if ok {
			sp.emitIdx = emitIdx
			sp.emitAll = false
		}
	}
	return sp
}

func (sp *componentSpace) swStateBit(i int) int { return sp.swBase + sp.swStride*i }
func (sp *componentSpace) swHeadBit(i, b int) int {
	return sp.swBase + sp.swStride*i + 1 + b
}
func (sp *componentSpace) swTailBit(i, b int) int {
	return sp.swBase + sp.swStride*i + 1 + sp.nbuck + b
}
func (sp *componentSpace) cinHeadBit(i int) int {
	return sp.swBase + sp.swStride*i + 1 + 2*sp.nbuck
}
func (sp *componentSpace) cinTailBit(i int) int  { return sp.cinHeadBit(i) + 1 }
func (sp *componentSpace) coutHeadBit(i int) int { return sp.cinHeadBit(i) + 2 }
func (sp *componentSpace) coutTailBit(i int) int { return sp.cinHeadBit(i) + 3 }
func (sp *componentSpace) hostBit(j int) int     { return sp.hostBase + j }

// bucket hashes an ingress port to its head/tail bucket index.
func (sp *componentSpace) bucket(p openflow.PortID) int { return int(p) % sp.nbuck }

// swAllRW adds every component of switch i (the conservative whole-
// switch access used by fallback paths).
func (sp *componentSpace) swAllRW(f *footprint, i int) {
	f.addRW(sp.swStateBit(i))
	for b := 0; b < sp.nbuck; b++ {
		f.addRW(sp.swHeadBit(i, b))
		f.addRW(sp.swTailBit(i, b))
	}
}

// enqueueSwitch adds the footprint of appending one packet to a port
// queue of switch i: the port's ingress tail bucket, plus its head
// bucket when the queue is currently empty (the append changes which
// packets lead the queues — visible to any dequeuer's plan and
// enabledness).
func (sp *componentSpace) enqueueSwitch(f *footprint, sys *System, i int, port openflow.PortID) {
	b := sp.bucket(port)
	f.w.add(sp.swTailBit(i, b))
	if len(sys.switches[i].QueuedPackets(port)) == 0 {
		f.w.add(sp.swHeadBit(i, b))
	}
}

// cinAppend adds the footprint of a switch→controller enqueue at
// switch i's inbound channel (packet_in, barrier/stats replies).
func (sp *componentSpace) cinAppend(f *footprint, sys *System, i int) {
	f.w.add(sp.cinTailBit(i))
	if sys.ctrl.InLen(sys.swIDs[i]) == 0 {
		f.w.add(sp.cinHeadBit(i))
	}
}

// coutAppend adds the footprint of a controller→switch emission onto
// switch i's outbound channel.
func (sp *componentSpace) coutAppend(f *footprint, sys *System, i int) {
	f.w.add(sp.coutTailBit(i))
	if sys.ctrl.OutLen(sys.swIDs[i]) == 0 {
		f.w.add(sp.coutHeadBit(i))
	}
}

// appSwitchRW adds the app-state access of handling a message from
// switch i: the switch's partition under a StatePartition claim, the
// whole app component otherwise.
func (sp *componentSpace) appSwitchRW(f *footprint, i int) {
	if sp.appParts {
		f.addRW(sp.appBase + i)
	} else {
		f.addRW(compCtrlApp)
	}
}

// appWholeRead adds a whole-app-state read (discover gating and the
// digest-keyed se:/ses: fingerprint lines read the full app state).
func (sp *componentSpace) appWholeRead(f *footprint) {
	f.r.union(sp.allApp)
}

// appWholeRW adds a whole-app-state read/write (environment handlers
// may touch every partition).
func (sp *componentSpace) appWholeRW(f *footprint) {
	f.r.union(sp.allApp)
	f.w.union(sp.allApp)
}

// dispatchEmits adds the ctrl-out writes of a handler run for switch
// i's messages: a tail append per possible target (every switch absent
// an emission-scope claim).
func (sp *componentSpace) dispatchEmits(f *footprint, sys *System, i int) {
	if sp.emitAll {
		for k := 0; k < sp.nsw; k++ {
			sp.coutAppend(f, sys, k)
		}
		return
	}
	for _, k := range sp.emitIdx[i] {
		sp.coutAppend(f, sys, k)
	}
}

// propWrites adds a property-component write for every attached property
// whose observed-event mask intersects the transition kind's possible
// events.
func (sp *componentSpace) propWrites(f *footprint, kindMask uint64) {
	for k, pm := range sp.propMasks {
		if pm&kindMask != 0 {
			f.w.add(sp.propBase + k)
		}
	}
}

// Conservative per-kind possible-event masks (what ApplyInto may emit).
var switchEventMask = MaskOf(EvArrive, EvProcessed, EvPacketIn, EvBuffered,
	EvReleased, EvDropped, EvVanished, EvCopied, EvCtrlInject,
	EvRuleInstalled, EvRuleDeleted, EvDelivered, EvFaultDropped)

// footprintInto computes one enabled transition's conservative footprint
// at the given state. hostSw maps host index → current attachment switch
// index (computed once per state by footprintsInto).
func (sp *componentSpace) footprintInto(sys *System, t *Transition, hostSw []int, f *footprint) {
	*f = footprint{}
	if sp.overflow {
		*f = sp.global
		return
	}
	cfg := sp.cfg
	switch t.Kind {
	case THostSend, THostReply:
		j := sys.hostIndex(t.Host)
		f.addRW(sp.hostBit(j))
		// Enqueue at the attachment switch: a tail append on its
		// ingress channels.
		sp.enqueueSwitch(f, sys, hostSw[j], sys.hosts[j].Loc.Port)
		if t.Kind == THostSend && !cfg.DisableSE {
			// Send enabledness comes from the discover cache, keyed by
			// the controller-application digest.
			sp.appWholeRead(f)
		}
		if cfg.FlowGroupKey != nil {
			f.addRW(compFlowIR)
		}
		if sp.idSensitive {
			f.w.add(compAlloc)
		}
		sp.propWrites(f, MaskOf(EvHostSend, EvArrive))

	case THostDiscover:
		j := sys.hostIndex(t.Host)
		// Cache presence for (host, loc, app) is part of state identity
		// (the se: fingerprint lines); the presence bit folds into the
		// host's component, and the key reads the app digest.
		f.addRW(sp.hostBit(j))
		sp.appWholeRead(f)
		sp.propWrites(f, MaskOf(EvCtrlDispatch))

	case THostMove:
		// Moves read every host's attachment (port occupancy), touch two
		// switches and may notify the controller; they are rare, so the
		// global footprint costs little precision.
		*f = sp.global
		return

	case TCtrlDispatch, TCtrlProcessStats:
		if cfg.NoDelay {
			*f = sp.global
			return
		}
		i := sys.swIndex(t.Sw)
		// Consume the head of the inbound channel; the pop empties it
		// when this is the last queued message.
		f.addRW(sp.cinHeadBit(i))
		if sys.ctrl.InLen(t.Sw) == 1 {
			f.w.add(sp.cinTailBit(i))
		}
		sp.appSwitchRW(f, i)
		sp.dispatchEmits(f, sys, i)
		if t.Kind == TCtrlProcessStats {
			sp.propWrites(f, MaskOf(EvStats))
		} else {
			sp.propWrites(f, MaskOf(EvCtrlDispatch))
		}

	case TCtrlDiscoverStats:
		// Like discover_packets: reads the pending stats reply and the
		// app digest, flips the ses: presence bit for this switch.
		i := sys.swIndex(t.Sw)
		f.addRW(sp.cinHeadBit(i))
		sp.appWholeRead(f)
		sp.propWrites(f, MaskOf(EvCtrlDispatch))

	case TCtrlEnv:
		if cfg.NoDelay || cfg.AtomicEnv {
			*f = sp.global
			return
		}
		sp.appWholeRW(f)
		for k := 0; k < sp.nsw; k++ { // environment handlers may emit anywhere
			f.w.add(sp.coutHeadBit(k))
			f.w.add(sp.coutTailBit(k))
		}
		if cfg.FlowGroupKey != nil && cfg.EnvGroupKey != nil {
			f.addRW(compFlowIR)
		}
		sp.propWrites(f, MaskOf(EvEnv))

	case TSwitchProcess, TSwitchProcessPort:
		if cfg.NoDelay {
			*f = sp.global
			return
		}
		i := sys.swIndex(t.Sw)
		sw := sys.switches[i]
		// The flow table and link map steer the plan.
		f.r.add(sp.swStateBit(i))
		var pbuf [8]openflow.PortID
		var pl openflow.ProcPlan
		if t.Kind == TSwitchProcessPort {
			// Dequeue one port's head (also the transition's
			// enabledness); the pop empties the channel at length 1.
			b := sp.bucket(t.Port)
			f.addRW(sp.swHeadBit(i, b))
			pl, _ = sw.ProcessPortPlan(t.Port, pbuf[:0])
			if len(sw.QueuedPackets(t.Port)) == 1 {
				f.w.add(sp.swTailBit(i, b))
			}
		} else {
			// The batched step's plan depends on which ports lead a
			// non-empty queue, so it reads every head bucket; it
			// dequeues (writes) the buckets of the non-empty ports and
			// empties the channels it pops at length 1.
			pl = sw.ProcessPlan(pbuf[:0])
			for b := 0; b < sp.nbuck; b++ {
				f.r.add(sp.swHeadBit(i, b))
			}
			for _, p := range sw.Ports {
				q := sw.QueuedPackets(p)
				if len(q) > 0 {
					f.w.add(sp.swHeadBit(i, sp.bucket(p)))
				}
				if len(q) == 1 {
					f.w.add(sp.swTailBit(i, sp.bucket(p)))
				}
			}
		}
		// Every processed packet reports EvProcessed (hit or miss).
		sp.planFootprint(sys, f, i, t.Sw, pl, MaskOf(EvProcessed))

	case TSwitchOF:
		if cfg.NoDelay {
			*f = sp.global
			return
		}
		i := sys.swIndex(t.Sw)
		// Consume the head of the outbound channel.
		f.addRW(sp.coutHeadBit(i))
		if sys.ctrl.OutLen(t.Sw) == 1 {
			f.w.add(sp.coutTailBit(i))
		}
		if msg, ok := sys.ctrl.HeadOut(t.Sw); ok {
			switch msg.Type {
			case openflow.MsgFlowMod:
				// Pure table update: ApplyOF never touches channels or
				// the packet buffer for flow_mods, whatever Buffer says.
				f.addRW(sp.swStateBit(i))
				sp.propWrites(f, MaskOf(EvRuleInstalled, EvRuleDeleted))
				return
			case openflow.MsgBarrierRequest:
				// Barrier: a reply to the controller, nothing else.
				sp.cinAppend(f, sys, i)
				return
			case openflow.MsgStatsRequest:
				// Reads counters, replies to the controller.
				f.r.add(sp.swStateBit(i))
				sp.cinAppend(f, sys, i)
				return
			case openflow.MsgPacketOut:
				var pbuf [8]openflow.PortID
				if pl, ok := sys.switches[i].OFPlan(msg, pbuf[:0]); ok {
					// The buffer scan and flood link states read the
					// switch; a buffer release mutates it.
					f.r.add(sp.swStateBit(i))
					if pl.Release {
						f.w.add(sp.swStateBit(i))
					}
					sp.planFootprint(sys, f, i, t.Sw, pl, 0)
					return
				}
			}
		}
		sp.switchMotion(f, i, hostSw)
		if sp.idSensitive {
			f.w.add(compAlloc)
		}
		sp.propWrites(f, switchEventMask)

	case TSwitchTick:
		i := sys.swIndex(t.Sw)
		f.addRW(sp.swStateBit(i))
		sp.propWrites(f, MaskOf(EvRuleExpired))

	default: // faults: budget state is global, channels arbitrary
		*f = sp.global
	}
}

// planFootprint folds a switch transition's predicted packet motion
// (openflow.ProcPlan) into f: the buffer and controller-in channel
// when a packet_in is sent, the flow table when a hit bumps hashed
// counters, and — per planned egress port — exactly the link peer or
// attached host the model's deliver step would reach (a tail append on
// that component's ingress channels). baseMask carries events the
// transition reports regardless of the plan (EvProcessed for
// process_pkt, nothing for packet_out); the caller adds its own
// head-consumption bits.
func (sp *componentSpace) planFootprint(sys *System, f *footprint, i int,
	sw openflow.SwitchID, pl openflow.ProcPlan, baseMask uint64) {
	mask := baseMask
	if pl.Miss {
		f.w.add(sp.swStateBit(i)) // buffer append
		sp.cinAppend(f, sys, i)
		mask |= MaskOf(EvPacketIn, EvBuffered)
	}
	if pl.Hit && sp.countersHashed {
		f.w.add(sp.swStateBit(i)) // rule counters are state identity
	}
	if pl.Drop {
		mask |= MaskOf(EvDropped)
	}
	if pl.Copies {
		mask |= MaskOf(EvCopied)
	}
	if pl.Inject {
		mask |= MaskOf(EvCtrlInject)
	}
	if pl.Release {
		mask |= MaskOf(EvReleased)
	}
	if (pl.Copies || pl.Inject) && sp.idSensitive {
		f.w.add(compAlloc) // fresh packet IDs
	}
	for _, p := range pl.Outputs {
		here := topo.PortKey{Sw: sw, Port: p}
		if peer, ok := sp.cfg.Topo.Peer(here); ok {
			if j := sys.swIndex(peer.Sw); j >= 0 {
				sp.enqueueSwitch(f, sys, j, peer.Port)
			}
			mask |= MaskOf(EvArrive, EvFaultDropped)
			continue
		}
		delivered := false
		for j, h := range sys.hosts {
			if h.Loc == here {
				f.addRW(sp.hostBit(j))
				mask |= MaskOf(EvDelivered)
				delivered = true
				break
			}
		}
		if !delivered {
			mask |= MaskOf(EvVanished) // immediate black hole
		}
	}
	sp.propWrites(f, mask)
}

// switchMotion is the conservative fallback for unplannable switch
// transitions: everything at switch i, link-adjacent switches, hosts
// currently attached to i, and the switch's controller-in channel
// (packet_in emission).
func (sp *componentSpace) switchMotion(f *footprint, i int, hostSw []int) {
	sp.swAllRW(f, i)
	f.w.add(sp.cinHeadBit(i))
	f.w.add(sp.cinTailBit(i))
	for _, p := range sp.peers[i] {
		sp.swAllRW(f, p)
	}
	for j, at := range hostSw {
		if at == i {
			f.addRW(sp.hostBit(j))
		}
	}
}

// footprintsInto computes footprints for every enabled transition,
// reusing buf. The per-state host→switch attachment scan is shared.
func (sp *componentSpace) footprintsInto(sys *System, enabled []Transition,
	buf []footprint, hostSw []int) ([]footprint, []int) {
	hostSw = hostSw[:0]
	for _, h := range sys.hosts {
		hostSw = append(hostSw, sys.swIndex(h.Loc.Sw))
	}
	if cap(buf) < len(enabled) {
		buf = make([]footprint, len(enabled))
	}
	buf = buf[:len(enabled)]
	for i := range enabled {
		sp.footprintInto(sys, &enabled[i], hostSw, &buf[i])
	}
	return buf, hostSw
}

// transIdentity folds a transition's identity — every field that tells
// it from another enabled transition — word-wise into a hash state. It
// is lossless: the whole header goes in through Header.Hash (VLAN, TOS,
// ports and TCP fields whatever the protocol — the pretty rendering
// Transition.Key prints for traces drops those, and two sends that
// differ only there must not share a sleep-set or backtrack identity),
// every stats word, the move target and the environment event. seq is
// scheduling metadata, not identity.
func transIdentity(t *Transition) canon.Mix {
	m := canon.NewMix(uint64(t.Kind)).Word(uint64(t.Host)).Word(uint64(t.Sw)).Word(uint64(t.Port))
	m = t.Hdr.Hash(m).Word(uint64(len(t.Stats)))
	for _, s := range t.Stats {
		m = m.Word(uint64(s.Port)).Word(s.TxBytes).Word(s.RxBytes)
	}
	return m.Word(uint64(t.MoveTo.Sw)).Word(uint64(t.MoveTo.Port)).Str(t.Env)
}

// dporKeyHash is the 64-bit transition identity used by sleep and
// backtrack sets (the same collision odds every other 64-bit component
// hash accepts): transIdentity refined with the identity of the object
// a queue-pop transition would consume. A Transition deliberately omits
// it (traces stay replayable by position), but the race analysis must
// not confuse two pops of the same queue: dporRaceInsert asks "is this
// exact transition enabled at frame d" and stops scanning once it
// inserts, so answering yes for a pop of a *different* message parks
// the backtrack point on the wrong transition and loses the shallower
// race. The popped identity is stable everywhere the sleep machinery
// compares keys across states: only a dependent transition can change
// a queue head, and dependent transitions evict sleep entries.
func dporKeyHash(sys *System, t *Transition) uint64 {
	m := transIdentity(t)
	switch t.Kind {
	case TSwitchOF:
		m = m.Word(uint64(t.seq))
	case TCtrlDispatch, TCtrlProcessStats, TCtrlDiscoverStats:
		if msg, ok := sys.ctrl.HeadIn(t.Sw); ok {
			m = m.Word(uint64(msg.Seq))
		}
	case TSwitchProcessPort:
		if i := sys.swIndex(t.Sw); i >= 0 {
			if q := sys.switches[i].QueuedPackets(t.Port); len(q) > 0 {
				m = m.Word(uint64(q[0].ID))
			}
		}
	case TSwitchProcess:
		if i := sys.swIndex(t.Sw); i >= 0 {
			sw := sys.switches[i]
			for _, p := range sw.Ports {
				if q := sw.QueuedPackets(p); len(q) > 0 {
					m = m.Word(uint64(p)).Word(uint64(q[0].ID))
				}
			}
		}
	}
	return m.Sum()
}

// DporTelemetry is the reduction-layer metric bundle ("dpor" scope):
// how many transitions sleep sets skipped, how many backtrack points the
// Flanagan–Godefroid race analysis inserted, how many enabled
// transitions the reduction never had to execute, and how many revisits
// required a partial re-expansion (the stateful sleep-set patch). Nil —
// no registry attached — keeps every site to one branch.
type DporTelemetry struct {
	sleepHits    *telemetry.Counter
	backtracks   *telemetry.Counter
	pruned       *telemetry.Counter
	reexpansions *telemetry.Counter
}

// NewDporTelemetry resolves the dpor-scope handles, or nil when no
// registry is attached.
func NewDporTelemetry(reg *telemetry.Registry) *DporTelemetry {
	if reg == nil {
		return nil
	}
	sc := reg.Scope("dpor")
	return &DporTelemetry{
		sleepHits:    sc.Counter("sleep_hits"),
		backtracks:   sc.Counter("backtrack_points"),
		pruned:       sc.Counter("pruned_transitions"),
		reexpansions: sc.Counter("revisit_reexpansions"),
	}
}

// SleepHit counts a transition skipped because it was asleep.
func (t *DporTelemetry) SleepHit() {
	if t != nil {
		t.sleepHits.Inc()
	}
}

// Backtrack counts an inserted backtrack point.
func (t *DporTelemetry) Backtrack() {
	if t != nil {
		t.backtracks.Inc()
	}
}

// Pruned counts enabled transitions a fully-expanded state never had to
// execute.
func (t *DporTelemetry) Pruned(n int) {
	if t != nil && n > 0 {
		t.pruned.Add(int64(n))
	}
}

// Reexpansion counts a revisit that re-explored previously-slept
// transitions (the stateful sleep-set patch).
func (t *DporTelemetry) Reexpansion() {
	if t != nil {
		t.reexpansions.Inc()
	}
}
