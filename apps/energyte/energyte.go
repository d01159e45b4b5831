package energyte

import (
	"fmt"
	"slices"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// FixLevel selects how many of the four published bugs are repaired.
type FixLevel int

const (
	// Buggy is the code as published.
	Buggy FixLevel = iota
	// FixVIII releases the triggering packet after installing the path.
	FixVIII
	// FixIX handles packets arriving at non-ingress switches instead
	// of ignoring them ("A correct 'fix' should either handle packets
	// arriving at intermediate switches, or use barriers", §8.3).
	FixIX
	// FixX abandons the global routing-table variable and chooses the
	// table per flow ("A 'fix' was to abandon the extra table and
	// choose the routing table on per-flow basis", §8.3).
	FixX
	// FixXI handles packets arriving at switches that are no longer on
	// any active path (same repair as FixIX applied after teardown).
	FixXI
	// Fixed is the fully repaired application.
	Fixed = FixXI
)

// Path names the two routing tables.
type Path int

const (
	// AlwaysOn is the direct s1→s2 path.
	AlwaysOn Path = iota
	// OnDemand is the s1→s3→s2 detour.
	OnDemand
)

func (p Path) String() string {
	if p == OnDemand {
		return "on-demand"
	}
	return "always-on"
}

// App is the TE controller application.
type App struct {
	controller.BaseApp
	controller.VersionCounter

	fix  FixLevel
	topo *topo.Topology

	// Static routing knowledge derived from the Triangle preset.
	ingress   openflow.SwitchID // s1
	egress    openflow.SwitchID // s2
	detour    openflow.SwitchID // s3
	threshold uint64

	// high is the perceived energy state ("the network's perceived
	// energy state", §8.3), set by the statistics handler.
	high bool
	// globalTable is BUG-X's "extra routing table" field: the stats
	// handler overwrites it and (in buggy mode) every new flow follows
	// it instead of splitting.
	globalTable Path
	// flowCount numbers new flows for the per-flow alternating split.
	flowCount int
	// flows records the path assigned to each flow.
	flows map[openflow.Flow]Path
	// pollsLeft bounds the environment stats-poll transition.
	pollsLeft int

	// UseBarriers selects the paper's alternative BUG-IX remedy: after
	// installing a path, hold the triggering packet until every
	// downstream switch acknowledges a barrier, then release it ("use
	// 'barriers' (where available) to ensure that rule installation
	// completes at all intermediate hops before allowing the packet to
	// depart the ingress switch", §8.3).
	UseBarriers bool
	// pending holds packets awaiting barrier acknowledgments.
	pending []pendingRelease

	// borrowed marks flows and pending as shared with the instance this
	// one was forked from (controller.ForkableApp); the first mutation
	// of either copies both. Scalar fields need no guard — Fork copies
	// the struct.
	borrowed bool
}

// pendingRelease is one parked packet: where it is buffered, how to
// release it, and the outstanding barrier xids.
type pendingRelease struct {
	Sw      openflow.SwitchID
	Buf     openflow.BufferID
	Out     openflow.PortID
	Waiting map[int]bool
}

// New builds the application for the Triangle preset topology.
func New(fix FixLevel, t *topo.Topology, threshold uint64, polls int) *App {
	return &App{
		fix: fix, topo: t,
		ingress: 1, egress: 2, detour: 3,
		threshold: threshold,
		flows:     make(map[openflow.Flow]Path),
		pollsLeft: polls,
	}
}

// Name implements controller.App.
func (a *App) Name() string { return fmt.Sprintf("energyte(fix=%d)", int(a.fix)) }

// Clone implements controller.App with a full deep copy (used by
// discover_packets / discover_stats throwaway handler runs; the
// checker's copy-on-write fast path uses Fork).
func (a *App) Clone() controller.App {
	c := *a
	c.flows = make(map[openflow.Flow]Path, len(a.flows))
	for k, v := range a.flows {
		c.flows[k] = v
	}
	c.pending = make([]pendingRelease, len(a.pending))
	for i, p := range a.pending {
		w := make(map[int]bool, len(p.Waiting))
		for x := range p.Waiting {
			w[x] = true
		}
		p.Waiting = w
		c.pending[i] = p
	}
	c.borrowed = false
	return &c
}

// Fork implements controller.ForkableApp: an O(1) copy borrowing the
// flow table and the pending-release queue; ensureOwned deep-copies
// both before the first mutation on the fork. The receiver must be
// frozen afterwards, per the ForkableApp ownership rules.
func (a *App) Fork() controller.App {
	c := *a
	c.borrowed = true
	return &c
}

// ensureOwned deep-copies borrowed mutable state before the first
// write. pending's Waiting maps are included: BarrierReply deletes from
// them in place.
func (a *App) ensureOwned() {
	if !a.borrowed {
		return
	}
	flows := make(map[openflow.Flow]Path, len(a.flows))
	for k, v := range a.flows {
		flows[k] = v
	}
	pending := make([]pendingRelease, len(a.pending))
	for i, p := range a.pending {
		w := make(map[int]bool, len(p.Waiting))
		for x := range p.Waiting {
			w[x] = true
		}
		p.Waiting = w
		pending[i] = p
	}
	a.flows, a.pending = flows, pending
	a.borrowed = false
}

// StateKey implements controller.App with a hand-written rendering:
// the scalars, the flow table in Flow.Less order, and the pending
// releases in queue order with their barrier xids sorted (the
// fmt.Sprintf + reflective canon.String walk this replaces was a sixth
// of a Table 2 run; TestStateKeyPartition holds the two to the same
// equalities).
func (a *App) StateKey() string {
	flows := make([]openflow.Flow, 0, len(a.flows))
	for f := range a.flows {
		flows = append(flows, f)
	}
	slices.SortFunc(flows, func(f, g openflow.Flow) int {
		if f.Less(g) {
			return -1
		}
		return 1 // map keys: never equal
	})
	b := make([]byte, 0, 64+48*len(flows)+32*len(a.pending))
	b = append(b, "high="...)
	b = strconv.AppendBool(b, a.high)
	b = append(b, " table="...)
	b = strconv.AppendInt(b, int64(a.globalTable), 10)
	b = append(b, " n="...)
	b = strconv.AppendInt(b, int64(a.flowCount), 10)
	b = append(b, " polls="...)
	b = strconv.AppendInt(b, int64(a.pollsLeft), 10)
	b = append(b, " flows{"...)
	for i, f := range flows {
		if i > 0 {
			b = append(b, ' ')
		}
		b = f.AppendKey(b)
		b = append(b, '=')
		b = strconv.AppendInt(b, int64(a.flows[f]), 10)
	}
	b = append(b, "} pend["...)
	var xids []int
	for _, p := range a.pending {
		b = strconv.AppendInt(b, int64(p.Sw), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Buf), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(p.Out), 10)
		xids = xids[:0]
		for x := range p.Waiting {
			xids = append(xids, x)
		}
		slices.Sort(xids)
		for _, x := range xids {
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(x), 10)
		}
		b = append(b, ';')
	}
	b = append(b, ']')
	return string(b)
}

// EnvEvents implements controller.EnvApp: the bounded periodic
// statistics poll ("The application learns the link utilizations by
// querying the switches for port statistics").
func (a *App) EnvEvents() []string {
	if a.pollsLeft > 0 {
		return []string{"poll_stats"}
	}
	return nil
}

// EnvApply issues the port-statistics query to the ingress switch.
func (a *App) EnvApply(ctx *controller.Context, event string) {
	if event != "poll_stats" || a.pollsLeft <= 0 {
		return
	}
	a.BumpStateVersion()
	a.pollsLeft--
	ctx.RequestStats(a.ingress, openflow.PortNone)
}

// StatsReply estimates load from the always-on link's transmit counter.
// The comparison runs through ctx.If, so discover_stats finds the
// threshold crossing with symbolic counters (§3.3).
//
// BUG-X lives here: the published code also rewrote the global routing
// table so "the remainder of the code simply reference[s] this extra
// table when deciding where to route a flow".
func (a *App) StatsReply(ctx *controller.Context, sw openflow.SwitchID, stats *sym.Stats) {
	if sw != a.ingress {
		return
	}
	a.BumpStateVersion()
	alwaysOnPort, _ := a.topo.LinkPort(a.ingress, a.egress)
	wasHigh := a.high
	a.high = ctx.If(stats.TxBytes(alwaysOnPort).Ge(sym.Concrete(a.threshold)))
	a.globalTable = AlwaysOn
	if a.high {
		a.globalTable = OnDemand
	}
	if wasHigh && !a.high {
		// Load fell: recompute every flow onto its always-on path and
		// tear down the on-demand detour so switch s3 can sleep.
		// BUG-XI: a packet already in flight on the detour reaches s3
		// after its rules are gone, and the handler "ignores the
		// packet because it fails to find this switch in any of those
		// lists" (§8.3) — s3 is on no recomputed path.
		a.ensureOwned()
		for f := range a.flows {
			if a.flows[f] != AlwaysOn {
				a.flows[f] = AlwaysOn
				out, _ := a.topo.LinkPort(a.ingress, a.egress)
				ctx.InstallRule(a.ingress, openflow.Rule{
					Priority: 10,
					Match:    flowMatchFromFlow(f),
					Actions:  []openflow.Action{openflow.Output(out)},
				})
			}
		}
		ctx.DeleteRule(a.detour, openflow.MatchAll())
	}
}

// flowMatchFromFlow rebuilds the per-flow rule pattern from a flow key.
func flowMatchFromFlow(f openflow.Flow) openflow.Match {
	return openflow.MatchAll().
		With(openflow.FieldEthSrc, uint64(f.EthSrc)).
		With(openflow.FieldEthDst, uint64(f.EthDst)).
		With(openflow.FieldEthType, uint64(f.EthType))
}

// PacketIn routes the first packet of each flow: pick a table, install a
// rule at every switch on the path, and (fixed) release the packet.
func (a *App) PacketIn(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, _ openflow.PacketInReason) {

	if sw != a.ingress {
		// A packet reached the controller from an intermediate or
		// off-path switch. The published handler implicitly ignores
		// it (BUG-IX at path switches, BUG-XI after teardown),
		// leaving it in the switch buffer forever.
		needed := FixIX
		if !a.onAnyPath(sw) {
			needed = FixXI
		}
		if a.fix >= needed {
			a.handleTransit(ctx, sw, pkt, buf)
		}
		return
	}

	flow := pkt.Header().Flow()
	path, known := sym.LookupFlow(ctx.Trace(), a.flows, pkt)
	if !known {
		path = a.choosePath()
		a.ensureOwned()
		a.BumpStateVersion()
		a.flowCount++
		a.flows[flow] = path
	}
	a.installPath(ctx, path, pkt, buf)
}

// choosePath is the routing-table decision. The published code (BUG-X)
// consults the global table the stats handler maintains; the fix decides
// per flow, alternating new flows across the two tables under high load.
func (a *App) choosePath() Path {
	if a.fix < FixX {
		return a.globalTable
	}
	if !a.high {
		return AlwaysOn
	}
	if a.flowCount%2 == 0 {
		return AlwaysOn
	}
	return OnDemand
}

// onAnyPath reports whether a switch lies on a currently active path.
func (a *App) onAnyPath(sw openflow.SwitchID) bool {
	if sw == a.ingress || sw == a.egress {
		return true
	}
	for _, p := range a.flows {
		if p == OnDemand && sw == a.detour {
			return true
		}
	}
	return false
}

// pathSwitches lists the switches of a path, ingress first.
func (a *App) pathSwitches(p Path) []openflow.SwitchID {
	if p == OnDemand {
		return []openflow.SwitchID{a.ingress, a.detour, a.egress}
	}
	return []openflow.SwitchID{a.ingress, a.egress}
}

// installPath installs the flow's rule at each hop. Rules are issued
// ingress-first, exactly the pattern BUG-IX exploits: "with
// communication delays in installing the rules, the packet could reach
// the second switch before the rule is installed".
func (a *App) installPath(ctx *controller.Context, p Path, pkt *sym.Packet, buf openflow.BufferID) {
	hdr := pkt.Header()
	sws := a.pathSwitches(p)
	var firstOut openflow.PortID
	for i, sw := range sws {
		var out openflow.PortID
		if i == len(sws)-1 {
			out = a.egressPort(hdr)
		} else {
			out, _ = a.topo.LinkPort(sw, sws[i+1])
		}
		if i == 0 {
			firstOut = out
		}
		ctx.InstallRule(sw, openflow.Rule{
			Priority: 10,
			Match:    flowMatch(hdr),
			Actions:  []openflow.Action{openflow.Output(out)},
		})
	}
	if a.fix < FixVIII {
		return // BUG-VIII: the triggering packet is never released.
	}
	if a.UseBarriers && len(sws) > 1 && buf != openflow.BufferNone {
		// Barrier remedy for BUG-IX: park the packet until every
		// downstream switch confirms its rule is in place.
		waiting := make(map[int]bool, len(sws)-1)
		for _, sw := range sws[1:] {
			waiting[ctx.Barrier(sw)] = true
		}
		a.ensureOwned()
		a.BumpStateVersion()
		a.pending = append(a.pending, pendingRelease{
			Sw: a.ingress, Buf: buf, Out: firstOut, Waiting: waiting,
		})
		return
	}
	// BUG-VIII fix: release the packet that triggered the handler.
	ctx.PacketOut(a.ingress, buf, openflow.Output(firstOut))
}

// BarrierReply releases parked packets once their path is confirmed.
func (a *App) BarrierReply(ctx *controller.Context, _ openflow.SwitchID, xid int) {
	for i := range a.pending {
		p := &a.pending[i]
		if !p.Waiting[xid] {
			continue
		}
		a.ensureOwned()
		p = &a.pending[i] // re-point at the owned copy before mutating
		a.BumpStateVersion()
		delete(p.Waiting, xid)
		if len(p.Waiting) == 0 {
			ctx.PacketOut(p.Sw, p.Buf, openflow.Output(p.Out))
			a.pending = append(a.pending[:i:i], a.pending[i+1:]...)
		}
		return
	}
}

// handleTransit releases a packet stuck at a non-ingress switch by
// forwarding it along its flow's path (or dropping it cleanly when the
// flow is unknown after a teardown).
func (a *App) handleTransit(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet, buf openflow.BufferID) {
	if buf == openflow.BufferNone {
		return
	}
	hdr := pkt.Header()
	path, known := sym.LookupFlow(ctx.Trace(), a.flows, pkt)
	if !known {
		ctx.PacketOut(sw, buf, openflow.Drop())
		return
	}
	sws := a.pathSwitches(path)
	for i, s := range sws {
		if s != sw {
			continue
		}
		var out openflow.PortID
		if i == len(sws)-1 {
			out = a.egressPort(hdr)
		} else {
			out, _ = a.topo.LinkPort(s, sws[i+1])
		}
		ctx.InstallRule(s, openflow.Rule{
			Priority: 10,
			Match:    flowMatch(hdr),
			Actions:  []openflow.Action{openflow.Output(out)},
		})
		ctx.PacketOut(s, buf, openflow.Output(out))
		return
	}
	ctx.PacketOut(sw, buf, openflow.Drop())
}

// egressPort finds the port on the egress switch facing the packet's
// destination host.
func (a *App) egressPort(hdr openflow.Header) openflow.PortID {
	for _, h := range a.topo.Hosts() {
		if h.MAC == hdr.EthDst {
			return h.Locations[0].Port
		}
	}
	// Unknown destination: fall back to the first host port on the
	// egress switch (bounded scenarios never hit this).
	return 1
}

// flowMatch is the per-flow rule pattern (MAC pair + EtherType).
func flowMatch(hdr openflow.Header) openflow.Match {
	return openflow.MatchAll().
		With(openflow.FieldEthSrc, uint64(hdr.EthSrc)).
		With(openflow.FieldEthDst, uint64(hdr.EthDst)).
		With(openflow.FieldEthType, uint64(hdr.EthType))
}
