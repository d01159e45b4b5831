package props

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/openflow"
)

// visitKey identifies one <switch, input port> visit of a packet lineage.
type visitKey struct {
	Orig openflow.PacketID
	Sw   openflow.SwitchID
	Port openflow.PortID
}

// NoForwardingLoops asserts packets never encounter forwarding loops,
// "implemented by checking that each packet goes through any given
// <switch, input port> pair at most once" (§5.2). Copies created by
// flooding share their origin's identity: two same-origin arrivals at
// one port only happen when the topology cycles traffic back.
type NoForwardingLoops struct {
	visited cow.Map[visitKey, bool]
	controller.VersionCounter
}

// NewNoForwardingLoops returns the property.
func NewNoForwardingLoops() *NoForwardingLoops { return &NoForwardingLoops{} }

// Name implements core.Property.
func (p *NoForwardingLoops) Name() string { return "NoForwardingLoops" }

// Clone implements core.Property: an O(1) copy borrowing the
// visited set until the clone's first write.
func (p *NoForwardingLoops) Clone() core.Property {
	c := *p
	c.visited.Borrow(nil)
	return &c
}

// OnEvents implements core.Property.
func (p *NoForwardingLoops) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		if e.Kind != core.EvArrive {
			continue
		}
		k := visitKey{Orig: e.Pkt.Orig, Sw: e.Sw, Port: e.Port}
		if _, seen := p.visited.Get(k); seen {
			return fmt.Errorf("packet (%s) traversed %v:%v twice — forwarding loop",
				e.Pkt.Header, e.Sw, e.Port)
		}
		p.BumpStateVersion()
		p.visited.Set(k, true)
	}
	return nil
}

// AtQuiescence implements core.Property.
func (p *NoForwardingLoops) AtQuiescence(*core.System) error { return nil }

// EventMask implements core.EventMasker: only packet arrivals matter.
func (p *NoForwardingLoops) EventMask() uint64 { return core.MaskOf(core.EvArrive) }

// StateKey implements core.Property.
func (p *NoForwardingLoops) StateKey() string {
	keys := make([]visitKey, 0, p.visited.Len())
	for k := range p.visited.All() {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Orig != b.Orig {
			return a.Orig < b.Orig
		}
		if a.Sw != b.Sw {
			return a.Sw < b.Sw
		}
		return a.Port < b.Port
	})
	b := make([]byte, 0, 16+12*len(keys))
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(k.Orig), 10)
		b = append(b, '@')
		b = strconv.AppendInt(b, int64(k.Sw), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(k.Port), 10)
	}
	b = append(b, '}')
	return string(b)
}

// NoBlackHoles asserts no packet is dropped in the network: every packet
// that enters ultimately leaves or is consumed by the controller, with a
// zero balance between packet copies and consumptions (§5.2). A packet
// emitted on a port with nothing attached is an immediate violation;
// residual in-flight packets are checked at quiescence. Packets parked
// in switch buffers are NoForgottenPackets' concern and excluded here.
type NoBlackHoles struct {
	// alive maps in-network packet instances to a short description.
	alive cow.Map[openflow.PacketID, string]
	// buffered marks instances currently parked at a switch.
	buffered cow.Map[openflow.PacketID, bool]
	controller.VersionCounter
}

// NewNoBlackHoles returns the property.
func NewNoBlackHoles() *NoBlackHoles { return &NoBlackHoles{} }

// Name implements core.Property.
func (p *NoBlackHoles) Name() string { return "NoBlackHoles" }

// Clone implements core.Property: an O(1) copy borrowing
// both accounting maps until the clone's first write.
func (p *NoBlackHoles) Clone() core.Property {
	c := *p
	c.alive.Borrow(nil)
	c.buffered.Borrow(nil)
	return &c
}

// OnEvents implements core.Property.
func (p *NoBlackHoles) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		switch e.Kind {
		case core.EvHostSend, core.EvCopied, core.EvCtrlInject, core.EvFaultDuplicated:
			p.BumpStateVersion()
			p.alive.Set(e.Pkt.ID, e.Pkt.Header.String())
		case core.EvDelivered, core.EvDropped, core.EvFaultDropped:
			// Fault-model losses are the environment's doing, not the
			// controller's; they leave the balance.
			p.BumpStateVersion()
			p.alive.Delete(e.Pkt.ID)
			p.buffered.Delete(e.Pkt.ID)
		case core.EvBuffered:
			p.BumpStateVersion()
			p.buffered.Set(e.Pkt.ID, true)
		case core.EvReleased:
			p.BumpStateVersion()
			p.buffered.Delete(e.Pkt.ID)
		case core.EvVanished:
			return fmt.Errorf("packet (%s) emitted on %v:%v with nothing attached — black hole",
				e.Pkt.Header, e.Sw, e.Port)
		}
	}
	return nil
}

// AtQuiescence implements core.Property.
func (p *NoBlackHoles) AtQuiescence(*core.System) error {
	var leaked []string
	for id, desc := range p.alive.All() {
		if _, parked := p.buffered.Get(id); !parked {
			leaked = append(leaked, desc)
		}
	}
	if len(leaked) > 0 {
		sort.Strings(leaked)
		return fmt.Errorf("copy balance non-zero at end of execution: %d packet(s) unaccounted: %s",
			len(leaked), strings.Join(leaked, "; "))
	}
	return nil
}

// EventMask implements core.EventMasker: every kind the copy-balance
// bookkeeping reads, including EvVanished (violation-only).
func (p *NoBlackHoles) EventMask() uint64 {
	return core.MaskOf(core.EvHostSend, core.EvCopied, core.EvCtrlInject,
		core.EvFaultDuplicated, core.EvDelivered, core.EvDropped,
		core.EvFaultDropped, core.EvBuffered, core.EvReleased, core.EvVanished)
}

// StateKey implements core.Property. It renders on stack scratch and
// allocates only the string; a state outgrowing the scratch spills to
// the heap.
func (p *NoBlackHoles) StateKey() string {
	var idScratch [16]openflow.PacketID
	var buf [1024]byte
	ids := idScratch[:0]
	for id := range p.alive.All() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	b := append(buf[:0], "alive{"...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ':')
		desc, _ := p.alive.Get(id)
		b = append(b, desc...)
	}
	b = append(b, "}buf"...)
	b = appendPacketIDSet(b, &p.buffered)
	return string(b)
}

// NoForgottenPackets asserts all switch buffers are empty at the end of
// an execution: a program that forgets to tell the switch what to do
// with a buffered packet leaks buffer space and eventually loses packets
// (§5.2). Four of the paper's eleven bugs violate exactly this.
type NoForgottenPackets struct{}

// NewNoForgottenPackets returns the property.
func NewNoForgottenPackets() *NoForgottenPackets { return &NoForgottenPackets{} }

// Name implements core.Property.
func (p *NoForgottenPackets) Name() string { return "NoForgottenPackets" }

// Clone implements core.Property.
func (p *NoForgottenPackets) Clone() core.Property { return &NoForgottenPackets{} }

// OnEvents implements core.Property.
func (p *NoForgottenPackets) OnEvents(*core.System, []core.Event) error { return nil }

// EventMask implements core.EventMasker: the property is stateless and
// judges only quiescent states, so it observes no events at all.
func (p *NoForgottenPackets) EventMask() uint64 { return 0 }

// PacketIDOblivious implements core.PacketIDOblivious: the property
// judges leftover packets by header content and location only, so its
// verdicts and error texts are invariant under packet-ID renaming.
func (p *NoForgottenPackets) PacketIDOblivious() bool { return true }

// AtQuiescence implements core.Property.
func (p *NoForgottenPackets) AtQuiescence(sys *core.System) error {
	for _, id := range sys.SwitchIDs() {
		if buf := sys.Switch(id).Buffered(); len(buf) > 0 {
			var descs []string
			for _, e := range buf {
				descs = append(descs, fmt.Sprintf("(%s)@%v", e.Pkt.Header, e.InPort))
			}
			return fmt.Errorf("switch %v still buffers %d packet(s) at end of execution: %s",
				id, len(buf), strings.Join(descs, "; "))
		}
	}
	return nil
}

// StateKey implements core.Property.
func (p *NoForgottenPackets) StateKey() string { return "" }

// DirectPaths checks that once a packet has successfully reached its
// destination, future packets of the same flow do not go to the
// controller (§5.2). Not applicable to plain MAC learning (the paper
// notes it needs both directions learned first) — use StrictDirectPaths
// there.
type DirectPaths struct {
	delivered cow.Map[openflow.Flow, bool]
	// lateSend marks packet lineages sent after their flow's path was
	// established; only those may not reach the controller (delay
	// robustness: packets already in flight are exempt).
	lateSend cow.Map[openflow.PacketID, bool]
	controller.VersionCounter
}

// NewDirectPaths returns the property.
func NewDirectPaths() *DirectPaths { return &DirectPaths{} }

// Name implements core.Property.
func (p *DirectPaths) Name() string { return "DirectPaths" }

// Clone implements core.Property: an O(1) copy borrowing
// both flow maps until the clone's first write.
func (p *DirectPaths) Clone() core.Property {
	c := *p
	c.delivered.Borrow(nil)
	c.lateSend.Borrow(nil)
	return &c
}

// OnEvents implements core.Property.
func (p *DirectPaths) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		switch e.Kind {
		case core.EvDelivered:
			if degenerateFlow(e.Pkt.Header) {
				continue
			}
			p.BumpStateVersion()
			p.delivered.Set(e.Pkt.Header.Flow(), true)
		case core.EvHostSend:
			if sent, _ := p.delivered.Get(e.Pkt.Header.Flow()); sent && !degenerateFlow(e.Pkt.Header) {
				p.BumpStateVersion()
				p.lateSend.Set(e.Pkt.Orig, true)
			}
		case core.EvPacketIn:
			if _, late := p.lateSend.Get(e.Pkt.Orig); late {
				return fmt.Errorf("packet (%s) went to the controller after its flow had a direct path",
					e.Pkt.Header)
			}
		}
	}
	return nil
}

// degenerateFlow filters packets that are not host-to-host conversations
// (broadcast destinations and self-addressed packets): path
// establishment is only meaningful between two distinct hosts.
func degenerateFlow(h openflow.Header) bool {
	return h.EthDst == openflow.BroadcastEth || h.EthSrc == h.EthDst ||
		h.EthDst.IsGroup()
}

// AtQuiescence implements core.Property.
func (p *DirectPaths) AtQuiescence(*core.System) error { return nil }

// EventMask implements core.EventMasker.
func (p *DirectPaths) EventMask() uint64 {
	return core.MaskOf(core.EvDelivered, core.EvHostSend, core.EvPacketIn)
}

// StateKey implements core.Property.
func (p *DirectPaths) StateKey() string { return directPathsKey(&p.delivered, &p.lateSend) }

// directPathsKey renders the state of DirectPaths and StrictDirectPaths
// on stack scratch, allocating only the string; a state outgrowing the
// scratch spills to the heap.
func directPathsKey(delivered *cow.Map[openflow.Flow, bool], lateSend *cow.Map[openflow.PacketID, bool]) string {
	var buf [1024]byte
	b := appendFlowSet(buf[:0], delivered)
	return string(appendPacketIDSet(b, lateSend))
}

// StrictDirectPaths checks that after two hosts have delivered at least
// one packet of a flow in each direction, no successive packets reach
// the controller (§5.2) — pyswitch's BUG-II violates this. Robustness to
// natural delays comes from only judging packets sent after the
// establishment completed.
type StrictDirectPaths struct {
	delivered cow.Map[openflow.Flow, bool] // unidirectional deliveries seen
	lateSend  cow.Map[openflow.PacketID, bool]
	controller.VersionCounter
}

// NewStrictDirectPaths returns the property.
func NewStrictDirectPaths() *StrictDirectPaths { return &StrictDirectPaths{} }

// Name implements core.Property.
func (p *StrictDirectPaths) Name() string { return "StrictDirectPaths" }

// established reports whether both directions of the flow have seen a
// delivery. Direction matching uses MAC endpoints only, so an echoed
// payload or rewritten ports still count as the return direction.
func (p *StrictDirectPaths) established(f openflow.Flow) bool {
	if !p.deliveredDir(f.EthSrc, f.EthDst) {
		return false
	}
	return p.deliveredDir(f.EthDst, f.EthSrc)
}

func (p *StrictDirectPaths) deliveredDir(src, dst openflow.EthAddr) bool {
	for f := range p.delivered.All() {
		if f.EthSrc == src && f.EthDst == dst {
			return true
		}
	}
	return false
}

// Clone implements core.Property: an O(1) copy borrowing
// both flow maps until the clone's first write.
func (p *StrictDirectPaths) Clone() core.Property {
	c := *p
	c.delivered.Borrow(nil)
	c.lateSend.Borrow(nil)
	return &c
}

// OnEvents implements core.Property.
func (p *StrictDirectPaths) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		switch e.Kind {
		case core.EvDelivered:
			if degenerateFlow(e.Pkt.Header) {
				continue
			}
			p.BumpStateVersion()
			p.delivered.Set(e.Pkt.Header.Flow(), true)
		case core.EvHostSend:
			if !degenerateFlow(e.Pkt.Header) && p.established(e.Pkt.Header.Flow()) {
				p.BumpStateVersion()
				p.lateSend.Set(e.Pkt.Orig, true)
			}
		case core.EvPacketIn:
			if _, late := p.lateSend.Get(e.Pkt.Orig); late {
				return fmt.Errorf("packet (%s) reached the controller after hosts exchanged traffic in both directions",
					e.Pkt.Header)
			}
		}
	}
	return nil
}

// AtQuiescence implements core.Property.
func (p *StrictDirectPaths) AtQuiescence(*core.System) error { return nil }

// EventMask implements core.EventMasker.
func (p *StrictDirectPaths) EventMask() uint64 {
	return core.MaskOf(core.EvDelivered, core.EvHostSend, core.EvPacketIn)
}

// StateKey implements core.Property.
func (p *StrictDirectPaths) StateKey() string { return directPathsKey(&p.delivered, &p.lateSend) }
