package core

import (
	"testing"

	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

func faultConfig(fm FaultModel) *Config {
	cfg := hubConfig(1)
	cfg.Faults = fm
	return cfg
}

func countKind(ts []Transition, k TransitionKind) int {
	n := 0
	for _, t := range ts {
		if t.Kind == k {
			n++
		}
	}
	return n
}

func TestFaultTransitionsDisabledByDefault(t *testing.T) {
	sys := NewSystem(hubConfig(1))
	sys.Apply(sys.Enabled()[0]) // send: a packet now sits on a channel
	for _, tr := range sys.Enabled() {
		switch tr.Kind {
		case TFaultDrop, TFaultDuplicate, TFaultReorder, TFaultLinkDown, TFaultSwitchDown:
			t.Fatalf("fault transition %v enabled with zero budgets", tr.Kind)
		}
	}
}

func TestFaultDropLosesThePacket(t *testing.T) {
	sys := NewSystem(faultConfig(FaultModel{MaxDrops: 1}))
	sys.Apply(sys.Enabled()[0]) // send
	var drop *Transition
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultDrop {
			d := tr
			drop = &d
		}
	}
	if drop == nil {
		t.Fatal("drop transition not offered")
	}
	events := sys.Apply(*drop)
	if len(events) != 1 || events[0].Kind != EvFaultDropped {
		t.Fatalf("events: %v", events)
	}
	if sys.Switch(1).TotalQueued() != 0 {
		t.Error("packet still queued after drop")
	}
	// Budget exhausted: no more drops offered.
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultDrop {
			t.Error("drop offered past its budget")
		}
	}
}

func TestFaultDuplicateCreatesIndependentPacket(t *testing.T) {
	sys := NewSystem(faultConfig(FaultModel{MaxDuplicates: 1}))
	sys.Apply(sys.Enabled()[0]) // send
	var dup *Transition
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultDuplicate {
			d := tr
			dup = &d
		}
	}
	if dup == nil {
		t.Fatal("duplicate transition not offered")
	}
	events := sys.Apply(*dup)
	if len(events) != 1 || events[0].Kind != EvFaultDuplicated {
		t.Fatalf("events: %v", events)
	}
	q := sys.Switch(1).QueuedPackets(1)
	if len(q) != 2 {
		t.Fatalf("queue holds %d packets, want 2", len(q))
	}
	if q[0].ID == q[1].ID || q[0].Orig == q[1].Orig {
		t.Error("duplicate shares identity/lineage with the original")
	}
	if q[0].Header != q[1].Header {
		t.Error("duplicate has a different header")
	}
}

func TestFaultReorderSwapsHeads(t *testing.T) {
	cfg := faultConfig(FaultModel{MaxReorders: 1})
	cfg.Hosts[0].SendBudget = 2
	cfg.Hosts[0].Repertoire = []openflow.Header{
		{EthSrc: topo.MACHostA, EthDst: topo.MACHostB, Payload: "first"},
	}
	sys := NewSystem(cfg)
	// Two sends onto the same channel.
	sys.Apply(Transition{Kind: THostSend, Host: 1, Hdr: openflow.Header{
		EthSrc: topo.MACHostA, EthDst: topo.MACHostB, Payload: "first"}})
	sys.Apply(Transition{Kind: THostSend, Host: 1, Hdr: openflow.Header{
		EthSrc: topo.MACHostA, EthDst: topo.MACHostB, Payload: "second"}})

	found := false
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultReorder {
			found = true
			sys.Apply(tr)
			break
		}
	}
	if !found {
		t.Fatal("reorder not offered on a two-packet channel")
	}
	q := sys.Switch(1).QueuedPackets(1)
	if q[0].Payload != "second" || q[1].Payload != "first" {
		t.Errorf("queue order after reorder: %q, %q", q[0].Payload, q[1].Payload)
	}
}

func TestFaultLinkDownKillsBothEnds(t *testing.T) {
	t2, aID, bID := topo.Linear(2)
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB}
	a := hosts.NewClient(t2.Host(aID), 1, 0, ping)
	a.Repertoire = []openflow.Header{ping}
	b := hosts.NewServer(t2.Host(bID), nil, 0)
	cfg := &Config{Topo: t2, App: &hubApp{}, Hosts: []*hosts.Host{a, b},
		DisableSE: true, Faults: FaultModel{MaxLinkFailures: 1}}
	sys := NewSystem(cfg)

	var down *Transition
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultLinkDown {
			d := tr
			down = &d
		}
	}
	if down == nil {
		t.Fatal("link-down not offered")
	}
	events := sys.Apply(*down)
	if len(events) != 1 || events[0].Kind != EvLinkDown {
		t.Fatalf("events: %v", events)
	}
	if sys.Switch(1).PortUp(2) || sys.Switch(2).PortUp(1) {
		t.Error("link endpoints still up after failure")
	}
}

func TestFaultSwitchDownClearsStateAndNotifies(t *testing.T) {
	sys := NewSystem(faultConfig(FaultModel{MaxSwitchFailures: 1}))
	sys.Apply(sys.Enabled()[0]) // send: one packet queued
	var down *Transition
	for _, tr := range sys.Enabled() {
		if tr.Kind == TFaultSwitchDown {
			d := tr
			down = &d
		}
	}
	if down == nil {
		t.Fatal("switch-down not offered")
	}
	events := sys.Apply(*down)
	var lost, downEv int
	for _, e := range events {
		switch e.Kind {
		case EvFaultDropped:
			lost++
		case EvSwitchDown:
			downEv++
		}
	}
	if lost != 1 || downEv != 1 {
		t.Fatalf("events: %v", events)
	}
	if sys.Switch(1).Alive {
		t.Error("switch still alive")
	}
	// The controller receives switch_leave; dispatching it clears the
	// app's per-switch state (hub app ignores it, but the channel must
	// carry it).
	head, ok := sys.Controller().HeadIn(1)
	if !ok || head.Type != openflow.MsgSwitchLeave {
		t.Errorf("controller channel head: %v, %t", head, ok)
	}
	// A dead switch offers no transitions.
	for _, tr := range sys.Enabled() {
		if tr.Kind == TSwitchProcess || tr.Kind == TSwitchOF {
			t.Errorf("dead switch still offers %v", tr.Kind)
		}
	}
}
