package props

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/cow"
	"github.com/nice-go/nice/openflow"
)

// connKey identifies a TCP connection from the client side.
type connKey struct {
	ClientIP   openflow.IPAddr
	ClientPort uint16
}

// FlowAffinity is the load balancer's application-specific property
// (§8.2): all packets of a single TCP connection must go to the same
// server replica. BUG-VII (duplicate SYN during a policy transition)
// violates it.
type FlowAffinity struct {
	// VIP is the virtual IP clients connect to.
	VIP openflow.IPAddr
	// Replicas are the server host IDs.
	Replicas []openflow.HostID

	assigned cow.Map[connKey, openflow.HostID]
	controller.VersionCounter
}

// NewFlowAffinity returns the property for the given virtual IP and
// replica set.
func NewFlowAffinity(vip openflow.IPAddr, replicas ...openflow.HostID) *FlowAffinity {
	return &FlowAffinity{VIP: vip, Replicas: replicas}
}

// Name implements core.Property.
func (p *FlowAffinity) Name() string { return "FlowAffinity" }

func (p *FlowAffinity) isReplica(h openflow.HostID) bool {
	for _, r := range p.Replicas {
		if r == h {
			return true
		}
	}
	return false
}

// OnEvents implements core.Property.
func (p *FlowAffinity) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		if e.Kind != core.EvDelivered || !p.isReplica(e.Host) {
			continue
		}
		// Note: the balancer rewrites IPDst from the VIP to the chosen
		// replica's address before delivery, so any TCP segment
		// reaching a replica is service traffic; the connection is
		// identified by its client-side endpoint.
		h := e.Pkt.Header
		if h.EthType != openflow.EthTypeIPv4 || h.IPProto != openflow.IPProtoTCP {
			continue
		}
		k := connKey{ClientIP: h.IPSrc, ClientPort: h.TPSrc}
		if prev, ok := p.assigned.Get(k); ok && prev != e.Host {
			return fmt.Errorf("connection %v:%d split across replicas %v and %v (packet %s)",
				k.ClientIP, k.ClientPort, prev, e.Host, h)
		}
		p.BumpStateVersion()
		p.assigned.Set(k, e.Host)
	}
	return nil
}

// Clone implements core.Property: an O(1) copy borrowing the
// assignment map until the clone's first write.
func (p *FlowAffinity) Clone() core.Property {
	c := *p
	c.assigned.Borrow(nil)
	return &c
}

// AtQuiescence implements core.Property.
func (p *FlowAffinity) AtQuiescence(*core.System) error { return nil }

// EventMask implements core.EventMasker: only deliveries to replicas
// matter.
func (p *FlowAffinity) EventMask() uint64 { return core.MaskOf(core.EvDelivered) }

// PacketIDOblivious implements core.PacketIDOblivious: connection
// affinity is tracked by (client IP, client port) header fields; packet
// IDs appear in neither the observer state nor the error texts.
func (p *FlowAffinity) PacketIDOblivious() bool { return true }

// StateKey implements core.Property.
func (p *FlowAffinity) StateKey() string {
	keys := make([]connKey, 0, p.assigned.Len())
	for k := range p.assigned.All() {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ClientIP != keys[j].ClientIP {
			return keys[i].ClientIP < keys[j].ClientIP
		}
		return keys[i].ClientPort < keys[j].ClientPort
	})
	b := make([]byte, 0, 16+24*len(keys))
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(uint32(k.ClientIP)), 16)
		b = append(b, ':')
		b = strconv.AppendUint(b, uint64(k.ClientPort), 10)
		b = append(b, '>')
		h, _ := p.assigned.Get(k)
		b = strconv.AppendInt(b, int64(h), 10)
	}
	b = append(b, '}')
	return string(b)
}

// TESpec is the routing specification the UseCorrectRoutingTable
// property enforces for the energy-efficient traffic-engineering
// application (§8.3): under low load every flow uses the always-on path;
// under high load new flows alternate between the always-on and
// on-demand paths (the deterministic stand-in for the paper's
// probabilistic 50/50 split).
type TESpec struct {
	// Ingress is the switch where new flows enter (s1).
	Ingress openflow.SwitchID
	// AlwaysOnPort / OnDemandPort are the ingress egress ports of the
	// two paths.
	AlwaysOnPort openflow.PortID
	OnDemandPort openflow.PortID
	// MonitorPort is the port whose TX counter the controller samples.
	MonitorPort openflow.PortID
	// Threshold is the utilization above which load is "high".
	Threshold uint64
}

// ExpectedPort returns the egress port the spec assigns to the idx-th
// new flow under the given load.
func (s TESpec) ExpectedPort(high bool, idx int) openflow.PortID {
	if !high {
		return s.AlwaysOnPort
	}
	if idx%2 == 0 {
		return s.AlwaysOnPort
	}
	return s.OnDemandPort
}

// UseCorrectRoutingTable checks that the controller, upon receiving a
// packet from an ingress switch, issues rules placing the flow on the
// path the current network load calls for (§8.3). It mirrors the spec
// independently of the application: it watches process_stats events to
// track the load the controller has been told about, counts new flows as
// the controller handles their packet_in, and validates the ingress rule
// installs that follow.
type UseCorrectRoutingTable struct {
	Spec TESpec

	high     bool
	flowIdx  int
	expected cow.Map[openflow.Flow, openflow.PortID]
	controller.VersionCounter
}

// NewUseCorrectRoutingTable returns the property for a TE spec.
func NewUseCorrectRoutingTable(spec TESpec) *UseCorrectRoutingTable {
	return &UseCorrectRoutingTable{Spec: spec}
}

// Name implements core.Property.
func (p *UseCorrectRoutingTable) Name() string { return "UseCorrectRoutingTable" }

// OnEvents implements core.Property.
func (p *UseCorrectRoutingTable) OnEvents(_ *core.System, events []core.Event) error {
	for _, e := range events {
		switch e.Kind {
		case core.EvStats:
			for _, ps := range e.Stats {
				if ps.Port == p.Spec.MonitorPort {
					p.BumpStateVersion()
					p.high = ps.TxBytes >= p.Spec.Threshold
				}
			}
		case core.EvCtrlDispatch:
			// A new flow is born when the controller handles a
			// packet_in for it at the ingress switch. Flows are
			// keyed at MAC granularity — the granularity of the TE
			// application's rules.
			if e.Msg.Type != openflow.MsgPacketIn || e.Msg.Switch != p.Spec.Ingress {
				continue
			}
			f := macFlow(e.Msg.Packet.Header.Flow())
			if _, known := p.expected.Get(f); known {
				continue
			}
			p.BumpStateVersion()
			p.expected.Set(f, p.Spec.ExpectedPort(p.high, p.flowIdx))
			p.flowIdx++
		case core.EvRuleInstalled:
			if e.Sw != p.Spec.Ingress {
				continue
			}
			f, ok := ruleFlow(e.Rule)
			if !ok {
				continue
			}
			want, known := p.expected.Get(macFlow(f))
			if !known {
				continue
			}
			for _, a := range e.Rule.Actions {
				if a.Type == openflow.ActionOutput && a.Port != want {
					return fmt.Errorf("flow %v routed out %v of %v, but the %s table requires %v (load high=%t)",
						f, a.Port, e.Sw, tableName(want, p.Spec), want, p.high)
				}
			}
		}
	}
	return nil
}

func tableName(port openflow.PortID, spec TESpec) string {
	if port == spec.AlwaysOnPort {
		return "always-on"
	}
	return "on-demand"
}

// macFlow projects a flow onto its MAC-pair + EtherType identity.
func macFlow(f openflow.Flow) openflow.Flow {
	return openflow.Flow{EthSrc: f.EthSrc, EthDst: f.EthDst, EthType: f.EthType}
}

// ruleFlow reconstructs the flow a microflow-ish rule serves from its
// match (needs at least the MAC pair).
func ruleFlow(r openflow.Rule) (openflow.Flow, bool) {
	src, okS := r.Match.Value(openflow.FieldEthSrc)
	dst, okD := r.Match.Value(openflow.FieldEthDst)
	if !okS || !okD {
		return openflow.Flow{}, false
	}
	f := openflow.Flow{EthSrc: openflow.EthAddr(src), EthDst: openflow.EthAddr(dst)}
	if v, ok := r.Match.Value(openflow.FieldEthType); ok {
		f.EthType = uint16(v)
	}
	if v, ok := r.Match.Value(openflow.FieldIPSrc); ok {
		f.IPSrc = openflow.IPAddr(uint32(v))
	}
	if v, ok := r.Match.Value(openflow.FieldIPDst); ok {
		f.IPDst = openflow.IPAddr(uint32(v))
	}
	if v, ok := r.Match.Value(openflow.FieldIPProto); ok {
		f.IPProto = uint8(v)
	}
	if v, ok := r.Match.Value(openflow.FieldTPSrc); ok {
		f.TPSrc = uint16(v)
	}
	if v, ok := r.Match.Value(openflow.FieldTPDst); ok {
		f.TPDst = uint16(v)
	}
	return f, true
}

// AtQuiescence implements core.Property.
func (p *UseCorrectRoutingTable) AtQuiescence(*core.System) error { return nil }

// EventMask implements core.EventMasker.
func (p *UseCorrectRoutingTable) EventMask() uint64 {
	return core.MaskOf(core.EvStats, core.EvCtrlDispatch, core.EvRuleInstalled)
}

// PacketIDOblivious implements core.PacketIDOblivious: the property
// tracks load levels and installed flow→port choices; packet IDs appear
// in neither the observer state nor the error texts.
func (p *UseCorrectRoutingTable) PacketIDOblivious() bool { return true }

// Clone implements core.Property: an O(1) copy borrowing the
// expectation map until the clone's first write (the scalar load/index
// state is carried by the struct copy itself).
func (p *UseCorrectRoutingTable) Clone() core.Property {
	c := *p
	c.expected.Borrow(nil)
	return &c
}

// StateKey implements core.Property.
func (p *UseCorrectRoutingTable) StateKey() string {
	var scratch [8]openflow.Flow
	flows := flowKeys(scratch[:0], &p.expected)
	b := make([]byte, 0, 32+32*len(flows))
	b = append(b, "high="...)
	b = strconv.AppendBool(b, p.high)
	b = append(b, " idx="...)
	b = strconv.AppendInt(b, int64(p.flowIdx), 10)
	b = append(b, " {"...)
	for i, f := range flows {
		if i > 0 {
			b = append(b, ' ')
		}
		b = f.AppendKey(b)
		b = append(b, '>')
		port, _ := p.expected.Get(f)
		b = strconv.AppendInt(b, int64(port), 10)
	}
	b = append(b, '}')
	return string(b)
}
