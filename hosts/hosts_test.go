package hosts

import (
	"testing"

	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

func clientServerPair() (*Host, *Host) {
	t, aID, bID := topo.SingleSwitch()
	a := NewClient(t.Host(aID), 2, 1, openflow.Header{
		EthSrc: topo.MACHostA, EthDst: topo.MACHostB, Payload: "ping",
	})
	b := NewServer(t.Host(bID), EchoReply, 2)
	return a, b
}

func TestClientSendBudgetAndCredits(t *testing.T) {
	a, _ := clientServerPair()
	if !a.CanSend() {
		t.Fatal("fresh client cannot send")
	}
	a.ConsumeSend()
	if a.CanSend() {
		t.Error("burst of 1 allowed a second outstanding packet")
	}
	a.Receive(openflow.Header{EthDst: a.MAC})
	if !a.CanSend() {
		t.Error("credit not replenished by receive")
	}
	a.ConsumeSend()
	if a.CanSend() {
		t.Error("send budget of 2 allowed a third send")
	}
	if a.SentCount != 2 {
		t.Errorf("sent count %d", a.SentCount)
	}
}

func TestUnlimitedCredits(t *testing.T) {
	spec := &topo.Host{ID: 1, Name: "x", Locations: []topo.PortKey{{Sw: 1, Port: 1}}}
	h := NewClient(spec, 3, 0, openflow.Header{})
	for i := 0; i < 3; i++ {
		if !h.CanSend() {
			t.Fatalf("send %d blocked despite unlimited burst", i)
		}
		h.ConsumeSend()
	}
	if h.CanSend() {
		t.Error("budget exhausted but CanSend true")
	}
}

func TestServerEchoQueuesReply(t *testing.T) {
	_, b := clientServerPair()
	ping := openflow.Header{
		EthSrc: topo.MACHostA, EthDst: b.MAC,
		IPSrc: topo.IPHostA, IPDst: b.IP, TPSrc: 10, TPDst: 20, Payload: "ping",
	}
	b.Receive(ping)
	if !b.CanReply() {
		t.Fatal("no reply queued")
	}
	rep := b.TakeReply()
	if rep.EthSrc != b.MAC || rep.EthDst != topo.MACHostA {
		t.Errorf("reply MACs wrong: %v", rep)
	}
	if rep.IPSrc != ping.IPDst || rep.TPSrc != 20 || rep.TPDst != 10 {
		t.Errorf("reply addressing wrong: %v", rep)
	}
	if rep.Payload != "re:ping" {
		t.Errorf("reply payload %q", rep.Payload)
	}
	if b.CanReply() {
		t.Error("reply queue not drained")
	}
}

func TestEchoIgnoresOtherDestinations(t *testing.T) {
	_, b := clientServerPair()
	b.Receive(openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostC})
	if b.CanReply() {
		t.Error("replied to a packet addressed elsewhere")
	}
	b.Receive(openflow.Header{EthSrc: topo.MACHostA, EthDst: openflow.BroadcastEth})
	if b.CanReply() {
		t.Error("replied to broadcast")
	}
}

func TestReplyBudgetBounds(t *testing.T) {
	_, b := clientServerPair()
	for i := 0; i < 5; i++ {
		b.Receive(openflow.Header{EthSrc: topo.MACHostA, EthDst: b.MAC})
	}
	if len(b.PendingReplies) != 2 {
		t.Errorf("queued %d replies despite budget 2", len(b.PendingReplies))
	}
}

func TestTCPServerReply(t *testing.T) {
	spec := &topo.Host{ID: 1, Name: "srv", MAC: topo.MACHostB, IP: topo.IPHostB,
		Locations: []topo.PortKey{{Sw: 1, Port: 2}}}
	srv := NewServer(spec, TCPServerReply, 2)
	syn := openflow.Header{
		EthSrc: topo.MACHostA, EthDst: srv.MAC, EthType: openflow.EthTypeIPv4,
		IPSrc: topo.IPHostA, IPDst: srv.IP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, TCPFlags: openflow.TCPSyn,
	}
	srv.Receive(syn)
	rep := srv.TakeReply()
	if rep.TCPFlags != openflow.TCPSyn|openflow.TCPAck {
		t.Errorf("SYN begat flags %v", rep.TCPFlags)
	}
	ack := syn
	ack.TCPFlags = openflow.TCPAck
	srv.Receive(ack)
	rep = srv.TakeReply()
	if rep.TCPFlags != openflow.TCPAck {
		t.Errorf("ACK begat flags %v", rep.TCPFlags)
	}
	// Non-TCP is ignored.
	srv.Receive(openflow.Header{EthDst: srv.MAC, EthType: openflow.EthTypeARP})
	if srv.CanReply() {
		t.Error("replied to ARP")
	}
}

func TestMobileHostMove(t *testing.T) {
	tp, _, bID := topo.SingleSwitchMobile()
	b := NewServer(tp.Host(bID), EchoReply, 1)
	if len(b.MoveTargets) != 1 {
		t.Fatalf("move targets: %v", b.MoveTargets)
	}
	loc, ok := b.Move()
	if !ok || loc != (topo.PortKey{Sw: 1, Port: 3}) {
		t.Errorf("moved to %v, %t", loc, ok)
	}
	if _, ok := b.Move(); ok {
		t.Error("moved with no targets left")
	}
}

func TestHostCloneIndependence(t *testing.T) {
	a, _ := clientServerPair()
	c := a.Fork(7)
	c.ConsumeSend()
	c.Receive(openflow.Header{})
	if a.SentCount != 0 || len(a.Received) != 0 {
		t.Error("fork mutation leaked into original")
	}
}

// TestHostRecycle: a recycled fork is zeroed, and later forks, which
// may take its shell, start from their own source and leave it alone.
func TestHostRecycle(t *testing.T) {
	a, _ := clientServerPair()
	c := a.Fork(7)
	c.ConsumeSend()
	c.Recycle()
	if c.SentCount != 0 || c.SendBudget != 0 || c.OwnedBy(7) {
		t.Error("a recycled host still shows state")
	}
	for owner := uint64(8); owner < 11; owner++ {
		d := a.Fork(owner)
		if d.SendBudget != a.SendBudget || d.Name != a.Name || !d.OwnedBy(owner) {
			t.Errorf("fork %d does not start from its source", owner)
		}
		d.ConsumeSend()
		d.Receive(openflow.Header{})
		if a.SentCount != 0 || len(a.Received) != 0 {
			t.Fatalf("fork %d wrote its source", owner)
		}
		d.Recycle()
	}
}

func TestStateKeyReflectsDynamics(t *testing.T) {
	a, _ := clientServerPair()
	k1, h1 := a.StateKey(), a.KeyHash64()
	a.ConsumeSend()
	k2, h2 := a.StateKey(), a.KeyHash64()
	if k1 == k2 || h1 == h2 {
		t.Error("send not visible in state key and hash")
	}
	a.Receive(openflow.Header{Payload: "x"})
	if a.StateKey() == k2 || a.KeyHash64() == h2 {
		t.Error("receive not visible in state key and hash")
	}
}

// TestKeyHashTracksStateKey drives both hosts through every mutator and
// checks, after each, that the cached hash equals the from-scratch one
// and that hash equality coincides with StateKey equality.
func TestKeyHashTracksStateKey(t *testing.T) {
	a, b := clientServerPair()
	b.MoveTargets = []topo.PortKey{{Sw: 2, Port: 3}}
	seen := map[string]uint64{}
	check := func(what string) {
		t.Helper()
		for _, h := range []*Host{a, b, a.Fork(7), b.Fork(7)} {
			if c, f := h.KeyHash64(), h.FreshKeyHash64(); c != f {
				t.Fatalf("after %s: host %d cached hash %#x != from-scratch %#x", what, h.ID, c, f)
			}
			if prev, ok := seen[h.StateKey()]; ok && prev != h.KeyHash64() {
				t.Fatalf("after %s: equal state keys, different hashes", what)
			}
			seen[h.StateKey()] = h.KeyHash64()
		}
	}
	check("construction")
	a.ConsumeSend()
	check("send")
	b.Receive(openflow.Header{EthSrc: a.MAC, EthDst: b.MAC, Payload: "ping"})
	check("receive")
	rep := b.TakeReply()
	check("take reply")
	a.Receive(rep)
	check("receive reply")
	b.Move()
	check("move")
	hashes := map[uint64]bool{}
	for _, h := range seen {
		hashes[h] = true
	}
	if len(hashes) != len(seen) {
		t.Errorf("%d distinct state keys but %d distinct hashes", len(seen), len(hashes))
	}
}
