package props

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
)

var (
	macA = openflow.MakeEthAddr(0, 0, 0, 0, 0, 2)
	macB = openflow.MakeEthAddr(0, 0, 0, 0, 0, 4)
)

func pktAB(id openflow.PacketID) openflow.Packet {
	return openflow.Packet{
		Header: openflow.Header{EthSrc: macA, EthDst: macB,
			EthType: openflow.EthTypeIPv4, Payload: "ping"},
		ID: id, Orig: id,
	}
}

func pktBA(id openflow.PacketID) openflow.Packet {
	return openflow.Packet{
		Header: openflow.Header{EthSrc: macB, EthDst: macA,
			EthType: openflow.EthTypeIPv4, Payload: "pong"},
		ID: id, Orig: id,
	}
}

func feed(t *testing.T, p core.Property, events ...core.Event) error {
	t.Helper()
	return p.OnEvents(nil, events)
}

func TestNoForwardingLoopsDetectsRevisit(t *testing.T) {
	p := NewNoForwardingLoops()
	pk := pktAB(1)
	if err := feed(t, p, core.Event{Kind: core.EvArrive, Sw: 1, Port: 1, Pkt: pk}); err != nil {
		t.Fatalf("first arrival flagged: %v", err)
	}
	if err := feed(t, p, core.Event{Kind: core.EvArrive, Sw: 1, Port: 2, Pkt: pk}); err != nil {
		t.Fatalf("different port flagged: %v", err)
	}
	if err := feed(t, p, core.Event{Kind: core.EvArrive, Sw: 1, Port: 1, Pkt: pk}); err == nil {
		t.Fatal("revisit not flagged")
	}
}

func TestNoForwardingLoopsTracksLineage(t *testing.T) {
	p := NewNoForwardingLoops()
	orig := pktAB(1)
	copy1 := orig
	copy1.ID = 2 // a flood copy keeps Orig=1
	feed(t, p, core.Event{Kind: core.EvArrive, Sw: 2, Port: 3, Pkt: orig})
	if err := feed(t, p, core.Event{Kind: core.EvArrive, Sw: 2, Port: 3, Pkt: copy1}); err == nil {
		t.Fatal("copy revisiting the same port not flagged")
	}
	// A different origin at the same port is fine.
	p2 := NewNoForwardingLoops()
	feed(t, p2, core.Event{Kind: core.EvArrive, Sw: 2, Port: 3, Pkt: pktAB(1)})
	if err := feed(t, p2, core.Event{Kind: core.EvArrive, Sw: 2, Port: 3, Pkt: pktAB(9)}); err != nil {
		t.Fatalf("independent packet flagged: %v", err)
	}
}

func TestNoBlackHolesVanishIsImmediate(t *testing.T) {
	p := NewNoBlackHoles()
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: pktAB(1)})
	err := feed(t, p, core.Event{Kind: core.EvVanished, Sw: 1, Port: 2, Pkt: pktAB(1)})
	if err == nil || !strings.Contains(err.Error(), "black hole") {
		t.Fatalf("vanish not flagged: %v", err)
	}
}

func TestNoBlackHolesBalancedLifecycle(t *testing.T) {
	p := NewNoBlackHoles()
	pk := pktAB(1)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: pk})
	cp := pk
	cp.ID = 2
	feed(t, p, core.Event{Kind: core.EvCopied, Pkt: cp})
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pk})
	feed(t, p, core.Event{Kind: core.EvDropped, Pkt: cp})
	if err := p.AtQuiescence(nil); err != nil {
		t.Fatalf("balanced execution flagged: %v", err)
	}
}

func TestNoBlackHolesLeakAtQuiescence(t *testing.T) {
	p := NewNoBlackHoles()
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: pktAB(1)})
	if err := p.AtQuiescence(nil); err == nil {
		t.Fatal("in-flight packet at quiescence not flagged")
	}
}

func TestNoBlackHolesBufferedIsForgottenNotBlackHoled(t *testing.T) {
	p := NewNoBlackHoles()
	pk := pktAB(1)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: pk})
	feed(t, p, core.Event{Kind: core.EvBuffered, Pkt: pk})
	if err := p.AtQuiescence(nil); err != nil {
		t.Fatalf("buffered packet flagged as black hole: %v", err)
	}
	// Released packets come back under balance accounting.
	feed(t, p, core.Event{Kind: core.EvReleased, Pkt: pk})
	if err := p.AtQuiescence(nil); err == nil {
		t.Fatal("released-but-undelivered packet not flagged")
	}
}

func TestNoBlackHolesCountsControllerInjections(t *testing.T) {
	p := NewNoBlackHoles()
	feed(t, p, core.Event{Kind: core.EvCtrlInject, Pkt: pktBA(5)})
	if err := p.AtQuiescence(nil); err == nil {
		t.Fatal("injected packet unaccounted")
	}
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pktBA(5)})
	if err := p.AtQuiescence(nil); err != nil {
		t.Fatalf("delivered injection flagged: %v", err)
	}
}

func TestDirectPathsViolation(t *testing.T) {
	p := NewDirectPaths()
	// Establish the path: one delivery.
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pktAB(1)})
	// A later send of the same flow going to the controller violates.
	late := pktAB(2)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: late})
	if err := feed(t, p, core.Event{Kind: core.EvPacketIn, Sw: 1, Pkt: late}); err == nil {
		t.Fatal("late packet_in not flagged")
	}
}

func TestDirectPathsDelayRobustness(t *testing.T) {
	p := NewDirectPaths()
	early := pktAB(1)
	// The packet was sent before any delivery: its packet_in is fine
	// even if a delivery lands in between.
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: early})
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pktAB(9)})
	if err := feed(t, p, core.Event{Kind: core.EvPacketIn, Sw: 1, Pkt: early}); err != nil {
		t.Fatalf("in-flight packet flagged: %v", err)
	}
}

func TestStrictDirectPathsNeedsBothDirections(t *testing.T) {
	p := NewStrictDirectPaths()
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pktAB(1)})
	// Only one direction delivered: no establishment yet.
	s2 := pktAB(2)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: s2})
	if err := feed(t, p, core.Event{Kind: core.EvPacketIn, Pkt: s2}); err != nil {
		t.Fatalf("flagged before both directions: %v", err)
	}
	// Both directions delivered: next send must stay in the fast path.
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: pktBA(3)})
	s4 := pktAB(4)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: s4})
	if err := feed(t, p, core.Event{Kind: core.EvPacketIn, Pkt: s4}); err == nil {
		t.Fatal("post-establishment packet_in not flagged")
	}
}

func TestStrictDirectPathsIgnoresDegenerate(t *testing.T) {
	p := NewStrictDirectPaths()
	bcast := openflow.Packet{Header: openflow.Header{EthSrc: macA, EthDst: openflow.BroadcastEth}, ID: 1, Orig: 1}
	self := openflow.Packet{Header: openflow.Header{EthSrc: macA, EthDst: macA}, ID: 2, Orig: 2}
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: bcast})
	feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: self})
	s := pktAB(3)
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: s})
	if err := feed(t, p, core.Event{Kind: core.EvPacketIn, Pkt: s}); err != nil {
		t.Fatalf("degenerate deliveries established a path: %v", err)
	}
}

func TestPropertyCloneIsolation(t *testing.T) {
	props := []core.Property{
		NewNoForwardingLoops(), NewNoBlackHoles(), NewDirectPaths(),
		NewStrictDirectPaths(), NewNoForgottenPackets(),
		NewFlowAffinity(openflow.MakeIPAddr(10, 0, 0, 100), 2, 3),
		NewUseCorrectRoutingTable(TESpec{Ingress: 1, AlwaysOnPort: 2, OnDemandPort: 3, MonitorPort: 2, Threshold: 10}),
	}
	for _, p := range props {
		c := p.Clone()
		if c.Name() != p.Name() {
			t.Errorf("clone of %s changed name", p.Name())
		}
		// Mutate the clone; the original's key must not change.
		before := p.StateKey()
		c.OnEvents(nil, []core.Event{
			{Kind: core.EvArrive, Sw: 1, Port: 1, Pkt: pktAB(1)},
			{Kind: core.EvHostSend, Pkt: pktAB(1)},
			{Kind: core.EvDelivered, Pkt: pktAB(1)},
			{Kind: core.EvStats, Stats: []openflow.PortStats{{Port: 2, TxBytes: 99}}},
		})
		if p.StateKey() != before {
			t.Errorf("%s: clone mutation leaked into original", p.Name())
		}
	}
}

func TestFlowAffinityUnit(t *testing.T) {
	vip := openflow.MakeIPAddr(10, 0, 0, 100)
	p := NewFlowAffinity(vip, 2, 3)
	tcp := func(id openflow.PacketID, port uint16) openflow.Packet {
		return openflow.Packet{Header: openflow.Header{
			EthType: openflow.EthTypeIPv4, IPProto: openflow.IPProtoTCP,
			IPSrc: openflow.MakeIPAddr(1, 1, 1, 1), TPSrc: port, TPDst: 80,
		}, ID: id, Orig: id}
	}
	if err := feed(t, p, core.Event{Kind: core.EvDelivered, Host: 2, Pkt: tcp(1, 5555)}); err != nil {
		t.Fatal(err)
	}
	// Same connection to the same replica: fine.
	if err := feed(t, p, core.Event{Kind: core.EvDelivered, Host: 2, Pkt: tcp(2, 5555)}); err != nil {
		t.Fatal(err)
	}
	// Different connection to the other replica: fine.
	if err := feed(t, p, core.Event{Kind: core.EvDelivered, Host: 3, Pkt: tcp(3, 7777)}); err != nil {
		t.Fatal(err)
	}
	// Same connection to the other replica: violation.
	if err := feed(t, p, core.Event{Kind: core.EvDelivered, Host: 3, Pkt: tcp(4, 5555)}); err == nil {
		t.Fatal("split connection not flagged")
	}
	// Deliveries to non-replica hosts are ignored.
	p2 := NewFlowAffinity(vip, 2, 3)
	feed(t, p2, core.Event{Kind: core.EvDelivered, Host: 9, Pkt: tcp(1, 5555)})
	if err := feed(t, p2, core.Event{Kind: core.EvDelivered, Host: 3, Pkt: tcp(2, 5555)}); err != nil {
		t.Fatalf("non-replica delivery counted: %v", err)
	}
}

func TestUseCorrectRoutingTableUnit(t *testing.T) {
	spec := TESpec{Ingress: 1, AlwaysOnPort: 2, OnDemandPort: 3, MonitorPort: 2, Threshold: 1000}
	p := NewUseCorrectRoutingTable(spec)

	hdr := openflow.Header{EthSrc: macA, EthDst: macB, EthType: openflow.EthTypeIPv4}
	packetIn := core.Event{Kind: core.EvCtrlDispatch, Sw: 1, Msg: openflow.Msg{
		Type: openflow.MsgPacketIn, Switch: 1, Packet: openflow.Packet{Header: hdr},
	}}
	ruleFor := func(port openflow.PortID) core.Event {
		return core.Event{Kind: core.EvRuleInstalled, Sw: 1, Rule: openflow.Rule{
			Priority: 10,
			Match: openflow.MatchAll().
				With(openflow.FieldEthSrc, uint64(macA)).
				With(openflow.FieldEthDst, uint64(macB)).
				With(openflow.FieldEthType, uint64(openflow.EthTypeIPv4)),
			Actions: []openflow.Action{openflow.Output(port)},
		}}
	}

	// Low load: always-on expected, on-demand violates.
	feed(t, p, packetIn)
	if err := feed(t, p, ruleFor(2)); err != nil {
		t.Fatalf("correct rule flagged: %v", err)
	}
	p2 := NewUseCorrectRoutingTable(spec)
	feed(t, p2, packetIn)
	if err := feed(t, p2, ruleFor(3)); err == nil {
		t.Fatal("wrong-table rule not flagged under low load")
	}

	// High load: flow index 0 expects always-on.
	p3 := NewUseCorrectRoutingTable(spec)
	feed(t, p3, core.Event{Kind: core.EvStats, Stats: []openflow.PortStats{{Port: 2, TxBytes: 5000}}})
	feed(t, p3, packetIn)
	if err := feed(t, p3, ruleFor(3)); err == nil {
		t.Fatal("even-indexed flow on the on-demand path not flagged")
	}
}

func TestExpectedPortSpec(t *testing.T) {
	spec := TESpec{AlwaysOnPort: 2, OnDemandPort: 3}
	if spec.ExpectedPort(false, 0) != 2 || spec.ExpectedPort(false, 1) != 2 {
		t.Error("low load must always use always-on")
	}
	if spec.ExpectedPort(true, 0) != 2 || spec.ExpectedPort(true, 1) != 3 || spec.ExpectedPort(true, 2) != 2 {
		t.Error("high-load alternation wrong")
	}
}

// TestPropertiesImplementVersioned pins the key-cache wiring of the
// library properties: core.System keeps a property's key hash until its
// controller.Versioned version moves, so every stateful property must
// implement the interface, move its version at every event that changes
// its key (one event per mutation site below), and carry the version
// through Clone, or a cached hash could alias two states.
func TestPropertiesImplementVersioned(t *testing.T) {
	tcp := openflow.Packet{Header: openflow.Header{
		EthType: openflow.EthTypeIPv4, IPProto: openflow.IPProtoTCP,
		IPSrc: openflow.MakeIPAddr(1, 1, 1, 1), TPSrc: 5555, TPDst: 80,
	}, ID: 1, Orig: 1}
	cp, inj, dup := pktAB(2), pktAB(3), pktAB(4)
	cp.ID, inj.ID, dup.ID = 2, 3, 4
	packetIn := core.Event{Kind: core.EvCtrlDispatch, Sw: 1, Msg: openflow.Msg{
		Type: openflow.MsgPacketIn, Switch: 1,
		Packet: openflow.Packet{Header: openflow.Header{EthSrc: macA, EthDst: macB}},
	}}
	cases := map[core.Property][]core.Event{
		NewNoForwardingLoops(): {{Kind: core.EvArrive, Sw: 1, Port: 1, Pkt: pktAB(1)}},
		NewNoBlackHoles(): {
			{Kind: core.EvHostSend, Pkt: pktAB(1)},
			{Kind: core.EvBuffered, Pkt: pktAB(1)},
			{Kind: core.EvReleased, Pkt: pktAB(1)},
			{Kind: core.EvDelivered, Pkt: pktAB(1)},
			{Kind: core.EvCopied, Pkt: cp},
			{Kind: core.EvCtrlInject, Pkt: inj},
			{Kind: core.EvFaultDuplicated, Pkt: dup},
			{Kind: core.EvDropped, Pkt: cp},
			{Kind: core.EvFaultDropped, Pkt: inj},
		},
		NewDirectPaths(): {
			{Kind: core.EvDelivered, Pkt: pktAB(1)},
			{Kind: core.EvHostSend, Pkt: pktAB(2)},
		},
		NewStrictDirectPaths(): {
			{Kind: core.EvDelivered, Pkt: pktAB(1)},
			{Kind: core.EvDelivered, Pkt: pktBA(2)},
			{Kind: core.EvHostSend, Pkt: pktAB(3)},
		},
		NewFlowAffinity(openflow.MakeIPAddr(10, 0, 0, 100), 2, 3): {
			{Kind: core.EvDelivered, Host: 2, Pkt: tcp},
		},
		NewUseCorrectRoutingTable(TESpec{Ingress: 1, AlwaysOnPort: 2, OnDemandPort: 3, MonitorPort: 2, Threshold: 10}): {
			{Kind: core.EvStats, Stats: []openflow.PortStats{{Port: 2, TxBytes: 99}}},
			packetIn,
		},
	}
	for p, events := range cases {
		v, ok := p.(controller.Versioned)
		if !ok {
			t.Errorf("%s does not implement controller.Versioned", p.Name())
			continue
		}
		for _, e := range events {
			key, ver := p.StateKey(), v.StateVersion()
			if err := feed(t, p, e); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if p.StateKey() == key {
				t.Fatalf("%s: %v left the key unchanged; the case tests no mutation site", p.Name(), e.Kind)
			}
			if v.StateVersion() == ver {
				t.Errorf("%s: %v changed the key without moving the version", p.Name(), e.Kind)
			}
		}
		if p.Clone().(controller.Versioned).StateVersion() != v.StateVersion() {
			t.Errorf("%s: Clone does not carry the state version", p.Name())
		}
	}
}
