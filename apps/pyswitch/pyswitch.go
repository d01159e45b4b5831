package pyswitch

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// Variant selects the published code or the repaired code.
type Variant int

const (
	// Buggy is the pyswitch as published (Figure 3).
	Buggy Variant = iota
	// Fixed applies the paper's fixes for BUG-I, BUG-II and BUG-III.
	Fixed
)

// App is the MAC-learning controller application. Controller state is
// the per-switch MAC table of Figure 3's ctrl_state.
type App struct {
	controller.BaseApp
	controller.VersionCounter

	variant Variant
	topo    *topo.Topology

	// mactable[sw][mac] = port, exactly Figure 3's
	// ctrl_state[sw_id][pkt.src] = inport. The outer map indexes one
	// table per joined switch; a stored table is never written (a write
	// stores a new one), so forks and clones share every table they do
	// not write.
	mactable map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID

	// borrowed marks the outer map as shared with the instance this one
	// was forked from (controller.ForkableApp); the first write copies
	// it. The flag lives only on the fork — the frozen source is never
	// written.
	borrowed bool

	// floods is the Fixed variant's spanning-tree flood list per
	// (switch, in-port), built once in New and shared by every fork,
	// clone and message (never written).
	floods map[floodKey][]openflow.Action
}

// floodKey indexes the Fixed variant's flood lists.
type floodKey struct {
	sw     openflow.SwitchID
	inport openflow.PortID
}

// New builds the application for a topology.
func New(variant Variant, t *topo.Topology) *App {
	a := &App{
		variant:  variant,
		topo:     t,
		mactable: make(map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID),
	}
	if variant == Fixed {
		stPorts := spanningTreePorts(t)
		a.floods = make(map[floodKey][]openflow.Action)
		for _, spec := range t.Switches() {
			for _, p := range spec.Ports {
				a.floods[floodKey{spec.ID, p}] = floodActions(stPorts[spec.ID], p)
			}
		}
	}
	return a
}

// Name implements controller.App.
func (a *App) Name() string {
	if a.variant == Fixed {
		return "pyswitch-fixed"
	}
	return "pyswitch"
}

// Clone implements controller.App (used by discover_packets' throwaway
// handler runs; the checker's copy-on-write fast path uses Fork). A copy
// of the outer map makes the clone independent: the tables it shares
// are never written.
func (a *App) Clone() controller.App {
	c := *a
	c.borrowed = true
	c.ensureOwned()
	return &c
}

// EmitsTo implements controller.EmissionScope: every handler emission
// (InstallRule, PacketOut, FloodPacket) targets the switch whose
// message is being handled — the MAC learner never programs a switch it
// did not hear from.
func (a *App) EmitsTo(sw openflow.SwitchID) ([]openflow.SwitchID, bool) {
	return []openflow.SwitchID{sw}, true
}

// PartitionedBySwitch implements controller.StatePartition: the MAC
// tables are keyed by switch, and every handler for a message from
// switch sw reads and writes mactable[sw] alone.
func (a *App) PartitionedBySwitch() bool { return true }

// Fork implements controller.ForkableApp: an O(1) copy borrowing the
// MAC tables; ensureOwned copies the outer map before the fork's first
// write. The receiver must be frozen afterwards, per the ForkableApp
// ownership rules.
func (a *App) Fork() controller.App {
	c := *a
	c.borrowed = true
	return &c
}

// ensureOwned copies a borrowed outer map before the first write; the
// tables stay shared.
func (a *App) ensureOwned() {
	if !a.borrowed {
		return
	}
	mt := make(map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID, len(a.mactable))
	for sw, t := range a.mactable {
		mt[sw] = t
	}
	a.mactable = mt
	a.borrowed = false
}

// store replaces sw's table with t, a table no other instance holds.
func (a *App) store(sw openflow.SwitchID, t map[openflow.EthAddr]openflow.PortID) {
	a.ensureOwned()
	a.BumpStateVersion()
	a.mactable[sw] = t
}

// learn stores ctrl_state[sw][mac] = port (Figure 3 line 7) in a new
// copy of sw's table, so a fork copies the one table it writes and not
// the whole network. Learning on a switch that never joined panics, as
// Figure 3's write into a missing table does.
func (a *App) learn(sw openflow.SwitchID, mac openflow.EthAddr, port openflow.PortID) {
	t, ok := a.mactable[sw]
	if !ok {
		panic(fmt.Sprintf("pyswitch: learn on switch %d, which never joined", sw))
	}
	m := make(map[openflow.EthAddr]openflow.PortID, len(t)+1)
	for k, v := range t {
		m[k] = v
	}
	m[mac] = port
	a.store(sw, m)
}

// StateKey implements controller.App with a hand-written sorted
// rendering of the MAC table (the reflective canon.String walk this
// replaces dominated AppKey cost; TestStateKeyMatchesCanon holds the two
// to the same equality semantics). One scratch slice sorts every
// switch's MACs in turn.
func (a *App) StateKey() string {
	sws := make([]openflow.SwitchID, 0, len(a.mactable))
	most := 0
	for sw, t := range a.mactable {
		sws = append(sws, sw)
		most = max(most, len(t))
	}
	slices.Sort(sws)
	macs := make([]openflow.EthAddr, 0, most)
	b := make([]byte, 0, 256)
	b = append(b, '{')
	for i, sw := range sws {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(sw), 10)
		b = append(b, ":{"...)
		t := a.mactable[sw]
		macs = macs[:0]
		for mac := range t {
			macs = append(macs, mac)
		}
		slices.Sort(macs)
		for j, mac := range macs {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendUint(b, uint64(mac), 10)
			b = append(b, ':')
			b = strconv.AppendInt(b, int64(t[mac]), 10)
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	return string(b)
}

// SwitchJoin initializes the switch's MAC table (Figure 3 lines 17-19).
func (a *App) SwitchJoin(_ *controller.Context, sw openflow.SwitchID) {
	if _, ok := a.mactable[sw]; !ok {
		a.ensureOwned()
		a.BumpStateVersion()
		a.mactable[sw] = make(map[openflow.EthAddr]openflow.PortID)
	}
}

// SwitchLeave deletes it (lines 20-22).
func (a *App) SwitchLeave(_ *controller.Context, sw openflow.SwitchID) {
	if _, ok := a.mactable[sw]; ok {
		a.ensureOwned()
		a.BumpStateVersion()
		delete(a.mactable, sw)
	}
}

// PortStatus purges MAC-table entries learned on a port that went down
// (Fixed only; part of the BUG-I remedy: with the stale rule expiring
// via its hard timeout AND the stale learned location forgotten, traffic
// to a moved host floods and reaches its new attachment).
func (a *App) PortStatus(ctx *controller.Context, sw openflow.SwitchID, port openflow.PortID, up bool) {
	if a.variant != Fixed || up {
		return
	}
	t := maps.Clone(a.mactable[sw])
	maps.DeleteFunc(t, func(_ openflow.EthAddr, p openflow.PortID) bool { return p == port })
	if len(t) < len(a.mactable[sw]) {
		a.store(sw, t)
	}
	// Also clear any forwarding rules pointing at the dead port: the
	// learned rules match on IN_PORT, so deleting by ingress is not
	// possible; instead expire-by-timeout covers them (hard timeout),
	// and new traffic floods meanwhile.
	_ = ctx
}

// PacketIn is Figure 3's handler, line for line. Packet-dependent
// branches go through ctx.If / sym.LookupEth so the same code serves
// concrete dispatch and discover_packets.
func (a *App) PacketIn(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, _ openflow.PacketInReason) {

	inport := pkt.InPort()

	// Lines 4-5: is_bcast_src = pkt.src[0] & 1 (and dst).
	isBcastSrc := pkt.EthSrc().Byte(0, 6).And(sym.Concrete(1)).EqConst(1)
	isBcastDst := pkt.EthDst().Byte(0, 6).And(sym.Concrete(1)).EqConst(1)

	// Lines 6-7: learn the source port. (The table alias of Figure 3's
	// line 3 is taken after the write so it sees the new table.)
	if !ctx.If(isBcastSrc) {
		a.learn(sw, openflow.EthAddr(pkt.EthSrc().C), inport)
	}
	mactable := a.mactable[sw] // line 3

	// Line 8: known unicast destination?
	if !ctx.If(isBcastDst) {
		if outport, ok := sym.LookupEth(ctx.Trace(), mactable, pkt.EthDst()); ok {
			if outport != inport { // line 10
				hdr := pkt.Header()
				a.installPath(ctx, sw, hdr, inport, outport, buf)
				return // line 15
			}
			// Destination learned on the ingress port: nothing to
			// do; fall through to flood, as pyswitch does.
		}
	}

	// Line 16: flood.
	a.flood(ctx, sw, inport, buf)
}

// installPath performs lines 11-14: install the forwarding rule and
// release the packet along it.
func (a *App) installPath(ctx *controller.Context, sw openflow.SwitchID,
	hdr openflow.Header, inport, outport openflow.PortID, buf openflow.BufferID) {

	// Line 11: match on DL_SRC, DL_DST, DL_TYPE, IN_PORT.
	match := openflow.MatchAll().
		With(openflow.FieldEthSrc, uint64(hdr.EthSrc)).
		With(openflow.FieldEthDst, uint64(hdr.EthDst)).
		With(openflow.FieldEthType, uint64(hdr.EthType)).
		With(openflow.FieldInPort, uint64(inport))

	hard := openflow.Permanent
	if a.variant == Fixed {
		// BUG-I fix: a hard timeout lets stale location rules expire
		// so a moved host becomes reachable again via flooding.
		hard = 3
	}

	if a.variant == Fixed {
		// BUG-II fix: also install the reverse direction — and
		// install it FIRST, so the released packet cannot outrun the
		// rule that its reply will need ("A correct fix would install
		// the rule for traffic from A first, before allowing the
		// packet from B to A to traverse the switch", §8.1).
		reverse := openflow.MatchAll().
			With(openflow.FieldEthSrc, uint64(hdr.EthDst)).
			With(openflow.FieldEthDst, uint64(hdr.EthSrc)).
			With(openflow.FieldEthType, uint64(hdr.EthType)).
			With(openflow.FieldInPort, uint64(outport))
		ctx.InstallRule(sw, openflow.Rule{
			Priority: 10, Match: reverse,
			Actions:     []openflow.Action{openflow.Output(inport)},
			IdleTimeout: 5, HardTimeout: hard,
		})
	}

	// Line 13: install_rule(sw, match, [output], soft_timer=5,
	// hard_timer=PERMANENT).
	ctx.InstallRule(sw, openflow.Rule{
		Priority: 10, Match: match,
		Actions:     []openflow.Action{openflow.Output(outport)},
		IdleTimeout: 5, HardTimeout: hard,
	})
	// Line 14: send_packet_out(sw, pkt, bufid).
	ctx.PacketOut(sw, buf, openflow.Output(outport))
}

// flood releases the packet to all ports (buggy) or along the spanning
// tree (fixed, BUG-III's remedy: pyswitch "does not construct a
// spanning tree", §8.1).
func (a *App) flood(ctx *controller.Context, sw openflow.SwitchID,
	inport openflow.PortID, buf openflow.BufferID) {

	if ctx.Symbolic() {
		// Effects are discarded during discover_packets; the branch
		// structure above is what matters.
		return
	}
	if a.variant != Fixed {
		ctx.FloodPacket(sw, buf)
		return
	}
	ctx.PacketOut(sw, buf, a.floods[floodKey{sw, inport}]...)
}

// floodActions outputs to every spanning-tree port but the ingress one,
// or drops when there is none.
func floodActions(stPorts []openflow.PortID, inport openflow.PortID) []openflow.Action {
	var actions []openflow.Action
	for _, p := range stPorts {
		if p != inport {
			actions = append(actions, openflow.Output(p))
		}
	}
	if len(actions) == 0 {
		actions = []openflow.Action{openflow.Drop()}
	}
	return actions
}

// spanningTreePorts computes, per switch, the ports on a BFS spanning
// tree of the switch graph plus all host-facing (non-link) ports.
func spanningTreePorts(t *topo.Topology) map[openflow.SwitchID][]openflow.PortID {
	specs := t.Switches()
	if len(specs) == 0 {
		return nil
	}
	inTree := make(map[[2]openflow.SwitchID]bool)
	visited := map[openflow.SwitchID]bool{specs[0].ID: true}
	queue := []openflow.SwitchID{specs[0].ID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var nbrs []openflow.SwitchID
		for _, l := range t.Links() {
			if l.A.Sw == cur {
				nbrs = append(nbrs, l.B.Sw)
			}
			if l.B.Sw == cur {
				nbrs = append(nbrs, l.A.Sw)
			}
		}
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		for _, nb := range nbrs {
			if visited[nb] {
				continue
			}
			visited[nb] = true
			inTree[[2]openflow.SwitchID{cur, nb}] = true
			inTree[[2]openflow.SwitchID{nb, cur}] = true
			queue = append(queue, nb)
		}
	}
	out := make(map[openflow.SwitchID][]openflow.PortID, len(specs))
	for _, spec := range specs {
		linkPorts := make(map[openflow.PortID]openflow.SwitchID)
		for _, l := range t.Links() {
			if l.A.Sw == spec.ID {
				linkPorts[l.A.Port] = l.B.Sw
			}
			if l.B.Sw == spec.ID {
				linkPorts[l.B.Port] = l.A.Sw
			}
		}
		for _, p := range spec.Ports {
			peer, isLink := linkPorts[p]
			if !isLink || inTree[[2]openflow.SwitchID{spec.ID, peer}] {
				out[spec.ID] = append(out[spec.ID], p)
			}
		}
	}
	return out
}
