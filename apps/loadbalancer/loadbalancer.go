package loadbalancer

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// FixLevel selects how many of the four published bugs are repaired, in
// paper order. Table 2's per-bug scenarios use the level that fixes all
// earlier bugs.
type FixLevel int

const (
	// Buggy is the code as published: all four bugs present.
	Buggy FixLevel = iota
	// FixIV releases the packet that triggered packet_in.
	FixIV
	// FixV installs inspection rules before deleting the old wildcard
	// rules ("the program should reverse the two steps", §8.2).
	FixV
	// FixVI discards proxied ARP requests from the switch buffer.
	FixVI
	// FixVII keeps unknown flows on the old policy during a transition
	// so a duplicate SYN cannot split a connection (the paper leaves
	// the fix open; this is the conservative repair).
	FixVII
	// Fixed is the fully repaired application.
	Fixed = FixVII
)

// Replica describes one server behind the virtual IP.
type Replica struct {
	MAC  openflow.EthAddr
	IP   openflow.IPAddr
	Port openflow.PortID
}

// Rule priorities, lowest to highest: wildcard forwarding, inspection
// (must shadow wildcards during transitions), per-connection microflow,
// ARP redirection.
const (
	prioWildcard  = 5
	prioInspect   = 6
	prioMicroflow = 8
	prioARP       = 10
)

// App is the load-balancer controller application.
type App struct {
	controller.BaseApp
	controller.VersionCounter

	fix FixLevel

	sw         openflow.SwitchID
	clientPort openflow.PortID
	vip        openflow.IPAddr
	vmac       openflow.EthAddr
	replicas   []Replica

	// policy indexes the replica receiving new connections.
	policy int
	// transitioning is true between a reconfiguration and its
	// completion (bounded scenarios never complete it; the window is
	// where the bugs live).
	transitioning bool
	// oldPolicy is the pre-transition policy, serving ongoing flows.
	oldPolicy int
	// inspected maps connections seen during the transition to their
	// replica index.
	inspected map[openflow.Flow]int
	// reconfigsLeft bounds the environment transition.
	reconfigsLeft int

	// borrowed marks inspected as shared with the instance this one was
	// forked from (controller.ForkableApp); the first inspection write
	// copies it. Scalar fields need no guard — Fork copies the struct.
	borrowed bool
}

// VirtualMAC is the MAC the virtual IP resolves to.
var VirtualMAC = openflow.MakeEthAddr(0x02, 0x00, 0x00, 0x00, 0x00, 0xfe)

// New builds the application. The topology must be the LoadBalancer
// preset shape: client on port 1 of a single switch, replicas behind it.
func New(fix FixLevel, t *topo.Topology, vip openflow.IPAddr, reconfigs int) *App {
	lb := &App{
		fix:           fix,
		sw:            1,
		clientPort:    1,
		vip:           vip,
		vmac:          VirtualMAC,
		inspected:     make(map[openflow.Flow]int),
		reconfigsLeft: reconfigs,
	}
	for _, h := range t.Hosts() {
		if h.Name == "client" {
			continue
		}
		lb.replicas = append(lb.replicas, Replica{MAC: h.MAC, IP: h.IP, Port: h.Locations[0].Port})
	}
	if len(lb.replicas) < 2 {
		panic("loadbalancer: need at least two replicas")
	}
	return lb
}

// Name implements controller.App.
func (a *App) Name() string { return fmt.Sprintf("loadbalancer(fix=%d)", int(a.fix)) }

// Clone implements controller.App with a full deep copy (used by
// discover_packets' throwaway handler runs; the checker's copy-on-write
// fast path uses Fork).
func (a *App) Clone() controller.App {
	c := *a
	c.replicas = append([]Replica(nil), a.replicas...)
	c.inspected = make(map[openflow.Flow]int, len(a.inspected))
	for k, v := range a.inspected {
		c.inspected[k] = v
	}
	c.borrowed = false
	return &c
}

// EmitsTo implements controller.EmissionScope: every handler emission
// targets the single load-balancer switch a.sw, regardless of which
// switch's message is being handled.
func (a *App) EmitsTo(openflow.SwitchID) ([]openflow.SwitchID, bool) {
	return []openflow.SwitchID{a.sw}, true
}

// Fork implements controller.ForkableApp: an O(1) copy borrowing the
// inspected-connection map (replicas are immutable after New and always
// shared). The receiver must be frozen afterwards, per the ForkableApp
// ownership rules.
func (a *App) Fork() controller.App {
	c := *a
	c.borrowed = true
	return &c
}

// ensureOwned copies the borrowed inspected map before the first write.
func (a *App) ensureOwned() {
	if !a.borrowed {
		return
	}
	m := make(map[openflow.Flow]int, len(a.inspected))
	for k, v := range a.inspected {
		m[k] = v
	}
	a.inspected = m
	a.borrowed = false
}

// StateKey implements controller.App with a hand-written sorted
// rendering (the reflective canon.String walk over the inspected map
// re-ran on every connection inspection and dominated the AppKey cost).
func (a *App) StateKey() string {
	flows := make([]openflow.Flow, 0, len(a.inspected))
	for f := range a.inspected {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i].Less(flows[j]) })
	b := make([]byte, 0, 48+40*len(flows))
	b = append(b, "policy="...)
	b = strconv.AppendInt(b, int64(a.policy), 10)
	b = append(b, " old="...)
	b = strconv.AppendInt(b, int64(a.oldPolicy), 10)
	b = append(b, " trans="...)
	b = strconv.AppendBool(b, a.transitioning)
	b = append(b, " rc="...)
	b = strconv.AppendInt(b, int64(a.reconfigsLeft), 10)
	b = append(b, " insp{"...)
	for i, f := range flows {
		if i > 0 {
			b = append(b, ' ')
		}
		b = f.AppendKey(b)
		b = append(b, '>')
		b = strconv.AppendInt(b, int64(a.inspected[f]), 10)
	}
	b = append(b, '}')
	return string(b)
}

// SwitchJoin installs the steady-state rule set: ARP redirection to the
// controller, wildcard forwarding of the two client IP-space halves to
// the current policy's replica, and return-path rewriting per replica.
func (a *App) SwitchJoin(ctx *controller.Context, sw openflow.SwitchID) {
	if sw != a.sw {
		return
	}
	ctx.InstallRule(sw, openflow.Rule{
		Priority: prioARP,
		Match:    openflow.MatchAll().With(openflow.FieldEthType, uint64(openflow.EthTypeARP)),
		Actions:  []openflow.Action{openflow.ToController()},
	})
	a.installWildcards(ctx)
	for _, r := range a.replicas {
		ctx.InstallRule(sw, openflow.Rule{
			Priority: prioWildcard,
			Match: openflow.MatchAll().
				With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
				With(openflow.FieldIPSrc, uint64(r.IP)),
			Actions: []openflow.Action{
				openflow.SetField(openflow.FieldEthSrc, uint64(a.vmac)),
				openflow.SetField(openflow.FieldIPSrc, uint64(a.vip)),
				openflow.Output(a.clientPort),
			},
		})
	}
}

// installWildcards divides the client address space into two /1 halves,
// both currently pointing at the policy replica (the Wang et al. design
// adjusts these prefixes to shift load).
func (a *App) installWildcards(ctx *controller.Context) {
	r := a.replicas[a.policy]
	for _, half := range []openflow.IPAddr{0, openflow.MakeIPAddr(128, 0, 0, 0)} {
		ctx.InstallRule(a.sw, openflow.Rule{
			Priority: prioWildcard,
			Match: openflow.MatchAll().
				With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
				With(openflow.FieldIPDst, uint64(a.vip)).
				WithIPSrcPrefix(half, 1),
			Actions: a.forwardActions(r),
		})
	}
}

func (a *App) forwardActions(r Replica) []openflow.Action {
	return []openflow.Action{
		openflow.SetField(openflow.FieldEthDst, uint64(r.MAC)),
		openflow.SetField(openflow.FieldIPDst, uint64(r.IP)),
		openflow.Output(r.Port),
	}
}

// EnvEvents implements controller.EnvApp: one bounded reconfiguration.
func (a *App) EnvEvents() []string {
	if a.reconfigsLeft > 0 && !a.transitioning {
		return []string{"reconfigure"}
	}
	return nil
}

// EnvApply flips the policy and starts the transition. The order of the
// two rule updates is the heart of BUG-V: the published code removed the
// old wildcard forwarding rules and then installed the inspection rules;
// packets arriving in between match nothing, reach the controller as
// NO_MATCH and are ignored. The fix reverses the steps (the inspection
// rules shadow the wildcards at higher priority, so there is no gap).
func (a *App) EnvApply(ctx *controller.Context, event string) {
	if event != "reconfigure" || a.reconfigsLeft <= 0 {
		return
	}
	a.BumpStateVersion()
	a.reconfigsLeft--
	a.oldPolicy = a.policy
	a.policy = (a.policy + 1) % len(a.replicas)
	a.transitioning = true

	deletePattern := openflow.MatchAll().
		With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
		With(openflow.FieldIPDst, uint64(a.vip))

	if a.fix >= FixV {
		a.installInspectRules(ctx)
		ctx.DeleteRuleStrict(a.sw, wildcardMatch(a.vip, 0), prioWildcard)
		ctx.DeleteRuleStrict(a.sw, wildcardMatch(a.vip, openflow.MakeIPAddr(128, 0, 0, 0)), prioWildcard)
		return
	}
	// Published order: delete everything forwarding to the VIP, then
	// install the inspection rules.
	ctx.DeleteRule(a.sw, deletePattern)
	a.installInspectRules(ctx)
}

func wildcardMatch(vip openflow.IPAddr, half openflow.IPAddr) openflow.Match {
	return openflow.MatchAll().
		With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
		With(openflow.FieldIPDst, uint64(vip)).
		WithIPSrcPrefix(half, 1)
}

func (a *App) installInspectRules(ctx *controller.Context) {
	for _, half := range []openflow.IPAddr{0, openflow.MakeIPAddr(128, 0, 0, 0)} {
		ctx.InstallRule(a.sw, openflow.Rule{
			Priority: prioInspect,
			Match: openflow.MatchAll().
				With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
				With(openflow.FieldIPDst, uint64(a.vip)).
				WithIPSrcPrefix(half, 1),
			Actions: []openflow.Action{openflow.ToController()},
		})
	}
}

// PacketIn handles ARP proxying and per-flow inspection during policy
// transitions. Packet-dependent branches go through ctx.If /
// sym.LookupFlow so discover_packets sees the handler's equivalence
// classes (ARP request, ARP other, TCP SYN to VIP, TCP non-SYN to VIP,
// known flow, other traffic).
func (a *App) PacketIn(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, reason openflow.PacketInReason) {

	if sw != a.sw {
		return
	}
	// BUG-V: the published handler ignores packets with an unexpected
	// reason code ("As written, the packet_in handler ignores such
	// (unexpected) packets, causing the switch to hold them until the
	// buffer fills", §8.2). The reason is not packet data, so this is a
	// concrete branch at every fix level; the repair is the update
	// ordering in EnvApply.
	if reason != openflow.ReasonAction {
		return
	}

	if ctx.If(pkt.EthType().EqConst(uint64(openflow.EthTypeARP))) {
		a.handleARP(ctx, pkt, buf)
		return
	}
	if ctx.If(pkt.EthType().EqConst(uint64(openflow.EthTypeIPv4)).
		And(pkt.IPProto().EqConst(uint64(openflow.IPProtoTCP))).
		And(pkt.IPDst().EqConst(uint64(a.vip)))) {
		a.handleConnection(ctx, pkt, buf)
		return
	}
	// Anything else the switch escalated is deliberately discarded —
	// the application is only buggy in the four published ways.
	a.discard(ctx, buf)
}

// handleARP proxies ARP requests for the virtual IP. BUG-VI: the reply
// is correct, but the buffered request is never discarded.
func (a *App) handleARP(ctx *controller.Context, pkt *sym.Packet, buf openflow.BufferID) {
	if !ctx.If(pkt.ArpOp().EqConst(uint64(openflow.ArpRequest)).
		And(pkt.IPDst().EqConst(uint64(a.vip)))) {
		a.discard(ctx, buf)
		return
	}
	reply := openflow.Header{
		EthSrc:  a.vmac,
		EthDst:  openflow.EthAddr(pkt.EthSrc().C),
		EthType: openflow.EthTypeARP,
		ArpOp:   openflow.ArpReply,
		IPSrc:   a.vip,
		IPDst:   openflow.IPAddr(uint32(pkt.IPSrc().C)),
		Payload: "arp-reply",
	}
	ctx.PacketOutData(a.sw, reply, openflow.PortNone, openflow.Output(pkt.InPort()))
	if a.fix >= FixVI {
		a.discard(ctx, buf)
	}
}

// handleConnection inspects one packet of a client connection during a
// transition and pins the connection to a replica with a microflow rule.
func (a *App) handleConnection(ctx *controller.Context, pkt *sym.Packet, buf openflow.BufferID) {
	flow := pkt.Header().Flow()

	choice := a.policy
	if a.transitioning {
		if idx, ok := sym.LookupFlow(ctx.Trace(), a.inspected, pkt); ok {
			// A connection already pinned during this transition
			// stays where it is.
			choice = idx
		} else if a.fix >= FixVII {
			// Conservative repair: unknown flows stay on the old
			// policy for the whole transition, so a retransmitted
			// SYN cannot jump replicas.
			choice = a.oldPolicy
		} else if ctx.If(pkt.TCPFlags().And(sym.Concrete(uint64(openflow.TCPSyn))).NeConst(0)) {
			// Published logic: "a SYN packet implies the flow is new
			// and should follow the new load-balancing policy".
			choice = a.policy
		} else {
			// Mid-connection packet of an ongoing transfer.
			choice = a.oldPolicy
		}
		a.ensureOwned()
		a.BumpStateVersion()
		a.inspected[flow] = choice
	}

	r := a.replicas[choice]
	ctx.InstallRule(a.sw, openflow.Rule{
		Priority: prioMicroflow,
		Match: openflow.MatchAll().
			With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)).
			With(openflow.FieldIPProto, uint64(openflow.IPProtoTCP)).
			With(openflow.FieldIPSrc, uint64(uint32(pkt.IPSrc().C))).
			With(openflow.FieldIPDst, uint64(a.vip)).
			With(openflow.FieldTPSrc, pkt.TPSrc().C).
			With(openflow.FieldTPDst, pkt.TPDst().C),
		Actions: a.forwardActions(r),
	})
	if a.fix >= FixIV {
		// BUG-IV fix: also tell the switch what to do with the packet
		// that triggered this handler.
		ctx.PacketOut(a.sw, buf, a.forwardActions(r)...)
	}
}

// discard releases a buffered packet with an explicit drop.
func (a *App) discard(ctx *controller.Context, buf openflow.BufferID) {
	if buf == openflow.BufferNone {
		return
	}
	ctx.PacketOut(a.sw, buf, openflow.Drop())
}
