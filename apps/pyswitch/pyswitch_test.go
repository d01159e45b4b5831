package pyswitch

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/canon"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

func newCtx() *controller.Context { return controller.NewContext(nil) }

func packetIn(app *App, ctx *controller.Context, h openflow.Header, inPort openflow.PortID) {
	app.PacketIn(ctx, 1, sym.ConcretePacket(new(sym.Packet), h, inPort), 7, openflow.ReasonNoMatch)
}

func ping() openflow.Header {
	return openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, Payload: "ping"}
}

func TestLearnsSourcePort(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1)
	if got := app.mactable.Read()[1][topo.MACHostA]; got != 1 {
		t.Errorf("A learned at port %v, want 1", got)
	}
}

func TestBroadcastSourceNotLearned(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	h := ping()
	h.EthSrc = openflow.BroadcastEth
	packetIn(app, newCtx(), h, 1)
	if len(app.mactable.Read()[1]) != 0 {
		t.Errorf("broadcast source learned: %v", app.mactable.Read()[1])
	}
}

func TestUnknownDestinationFloods(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	ctx := newCtx()
	packetIn(app, ctx, ping(), 1)
	msgs := ctx.Messages()
	if len(msgs) != 1 || msgs[0].Type != openflow.MsgPacketOut {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Actions[0].Type != openflow.ActionFlood {
		t.Errorf("expected flood, got %v", msgs[0].Actions)
	}
}

func TestKnownDestinationInstallsOneDirection(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1) // learn A@1

	ctx := newCtx()
	pong := ping()
	pong.EthSrc, pong.EthDst = pong.EthDst, pong.EthSrc
	packetIn(app, ctx, pong, 2) // B→A: A known
	msgs := ctx.Messages()
	if len(msgs) != 2 {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Type != openflow.MsgFlowMod || msgs[1].Type != openflow.MsgPacketOut {
		t.Fatalf("wrong message kinds: %v, %v", msgs[0].Type, msgs[1].Type)
	}
	// The published code installs only the B→A rule (BUG-II's cause).
	src, _ := msgs[0].Rule.Match.Value(openflow.FieldEthSrc)
	if openflow.EthAddr(src) != topo.MACHostB {
		t.Errorf("rule src %v, want B's MAC", openflow.EthAddr(src))
	}
	if msgs[0].Rule.IdleTimeout != 5 || msgs[0].Rule.HardTimeout != openflow.Permanent {
		t.Errorf("timeouts: idle=%d hard=%d", msgs[0].Rule.IdleTimeout, msgs[0].Rule.HardTimeout)
	}
}

func TestFixedInstallsBothDirectionsReverseFirst(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Fixed, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1)

	ctx := newCtx()
	pong := ping()
	pong.EthSrc, pong.EthDst = pong.EthDst, pong.EthSrc
	packetIn(app, ctx, pong, 2)
	msgs := ctx.Messages()
	if len(msgs) != 3 {
		t.Fatalf("messages: %v", msgs)
	}
	// Reverse (A→B) rule first, then forward (B→A), then packet_out.
	src0, _ := msgs[0].Rule.Match.Value(openflow.FieldEthSrc)
	src1, _ := msgs[1].Rule.Match.Value(openflow.FieldEthSrc)
	if openflow.EthAddr(src0) != topo.MACHostA || openflow.EthAddr(src1) != topo.MACHostB {
		t.Errorf("install order wrong: %v then %v", openflow.EthAddr(src0), openflow.EthAddr(src1))
	}
	if msgs[0].Rule.HardTimeout == openflow.Permanent {
		t.Error("fixed variant must use a hard timeout (BUG-I remedy)")
	}
}

func TestSamePortDestinationFloods(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1) // learn A@1
	ctx := newCtx()
	h := ping()
	h.EthSrc, h.EthDst = topo.MACHostB, topo.MACHostA // to A, arriving on A's port
	packetIn(app, ctx, h, 1)
	if ctx.Messages()[0].Actions[0].Type != openflow.ActionFlood {
		t.Error("outport==inport case must flood, not install")
	}
}

func TestSwitchLeaveForgets(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1)
	app.SwitchLeave(newCtx(), 1)
	if _, ok := app.mactable.Read()[1]; ok {
		t.Error("switch state survived leave")
	}
}

func TestCloneAndStateKey(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	k0 := app.StateKey()
	c := app.Clone().(*App)
	packetIn(c, newCtx(), ping(), 1)
	if app.StateKey() != k0 {
		t.Error("clone mutation leaked into original")
	}
	if c.StateKey() == k0 {
		t.Error("learning did not change the clone's state key")
	}
}

func TestSymbolicRunDiscoversClasses(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	app.SwitchJoin(newCtx(), 1)
	packetIn(app, newCtx(), ping(), 1) // learn A@1 so the lookup branch is live

	tr := sym.NewTrace()
	ctx := controller.NewSymContext(tr)
	pkt := sym.SymbolicPacket(ping(), 2)
	clone := app.Clone().(*App)
	clone.PacketIn(ctx, 1, pkt, openflow.BufferNone, openflow.ReasonNoMatch)
	// Branches: is_bcast_src, is_bcast_dst, mactable lookup (1 key).
	if got := len(tr.Branches()); got < 3 {
		t.Errorf("recorded %d branches, want >= 3", got)
	}
}

func TestSpanningTreePortsOnCycle(t *testing.T) {
	tp, _, _ := topo.Cycle(3)
	st := spanningTreePorts(tp)
	// Exactly one cycle edge must be excluded: total link-port count on
	// the tree is 2 links × 2 ends = 4 of the 6 link ports.
	linkPorts := 0
	for sw, ports := range st {
		for _, p := range ports {
			if _, ok := tp.Peer(topo.PortKey{Sw: sw, Port: p}); ok {
				linkPorts++
			}
		}
	}
	if linkPorts != 4 {
		t.Errorf("spanning tree keeps %d link ports, want 4", linkPorts)
	}
	// Host ports always flood.
	for sw := openflow.SwitchID(1); sw <= 3; sw++ {
		found := false
		for _, p := range st[sw] {
			if p == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("host port of %v missing from flood set", sw)
		}
	}
}

// macMap is the MAC table as Figure 3 writes it: ctrl_state[sw][mac].
type macMap map[openflow.SwitchID]map[openflow.EthAddr]openflow.PortID

// refKey renders a MAC table in StateKey's format with fmt and sorted
// key iterators: the reference the hand-written encoder is held to.
func refKey(m macMap) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, sw := range slices.Sorted(maps.Keys(m)) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:{", sw)
		for j, mac := range slices.Sorted(maps.Keys(m[sw])) {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%d", uint64(mac), m[sw][mac])
		}
		b.WriteByte('}')
	}
	b.WriteByte('}')
	return b.String()
}

// randomApp joins up to three switches and learns up to five MACs on
// each, every bound drawn once.
func randomApp(rng *rand.Rand, tp *topo.Topology) *App {
	a := New(Buggy, tp)
	nsw := rng.Intn(4)
	for sw := 1; sw <= nsw; sw++ {
		a.SwitchJoin(newCtx(), openflow.SwitchID(sw))
		nmac := rng.Intn(6)
		for m := 0; m < nmac; m++ {
			a.learn(openflow.SwitchID(sw), openflow.EthAddr(rng.Intn(6)*2), openflow.PortID(rng.Intn(3)+1))
		}
	}
	return a
}

// TestStateKeyMatchesCanon holds the hand-written StateKey encoder to
// the reflective canon.String rendering of the same MAC table: two
// tables render equal under one iff they render equal under the other,
// across a spread of randomized table shapes. The encoder also matches
// the reference rendering byte for byte.
func TestStateKeyMatchesCanon(t *testing.T) {
	tp, _, _ := topo.Linear(2)
	rng := rand.New(rand.NewSource(11))
	apps := make([]*App, 40)
	distinct := map[string]bool{}
	for i := range apps {
		apps[i] = randomApp(rng, tp)
		if got, want := apps[i].StateKey(), refKey(apps[i].mactable.Read()); got != want {
			t.Fatalf("app %d: StateKey %s, reference %s", i, got, want)
		}
		distinct[apps[i].StateKey()] = true
	}
	if len(distinct) < 20 {
		t.Fatalf("only %d distinct tables among %d: the generator is degenerate", len(distinct), len(apps))
	}
	for i, a := range apps {
		for j, b := range apps {
			handEq := a.StateKey() == b.StateKey()
			canonEq := canon.String(a.mactable.Read()) == canon.String(b.mactable.Read())
			if handEq != canonEq {
				t.Fatalf("apps %d/%d: hand-written equality %t, canon equality %t\nhand a: %s\nhand b: %s",
					i, j, handEq, canonEq, a.StateKey(), b.StateKey())
			}
		}
	}
	// Version hook sanity: a learn bumps the version, rendering changes.
	a := New(Buggy, tp)
	ctx := newCtx()
	a.SwitchJoin(ctx, 1)
	v0 := a.StateVersion()
	packetIn(a, ctx, ping(), 2)
	if a.StateVersion() == v0 {
		t.Error("PacketIn learn did not bump the state version")
	}
}

// joined builds a Buggy app with n joined switches; every switch but
// the first knows known MACs.
func joined(n, known int) *App {
	tp, _, _ := topo.Linear(2)
	a := New(Buggy, tp)
	for sw := 1; sw <= n; sw++ {
		a.SwitchJoin(newCtx(), openflow.SwitchID(sw))
		for m := 0; sw > 1 && m < known; m++ {
			a.learn(openflow.SwitchID(sw), openflow.EthAddr(100+2*m), 1)
		}
	}
	return a
}

// TestLearnCopiesOneTable: a learning PacketIn on a fresh clone copies
// the outer map and the one table it writes, so what it allocates does
// not depend on what the other switches' tables hold.
func TestLearnCopiesOneTable(t *testing.T) {
	learnAllocs := func(parent *App) float64 {
		return testing.AllocsPerRun(200, func() {
			f := parent.Clone().(*App)
			packetIn(f, newCtx(), ping(), 1)
		})
	}
	for _, n := range []int{2, 16} {
		if empty, full := learnAllocs(joined(n, 0)), learnAllocs(joined(n, 6)); empty != full {
			t.Errorf("%d switches: a learning PacketIn allocates %.1f times beside empty tables, %.1f beside full ones",
				n, empty, full)
		}
	}
	parent := joined(3, 6)
	before := parent.StateKey()
	f := parent.Clone().(*App)
	packetIn(f, newCtx(), ping(), 1)
	if parent.StateKey() != before || f.StateKey() == before {
		t.Errorf("clone's learn: parent %s → %s, clone %s", before, parent.StateKey(), f.StateKey())
	}
}

func TestLearnOnUnjoinedSwitchPanics(t *testing.T) {
	tp, _, _ := topo.SingleSwitch()
	app := New(Buggy, tp)
	defer func() {
		if recover() == nil {
			t.Error("learning on a switch that never joined did not panic")
		}
	}()
	packetIn(app, newCtx(), ping(), 1)
}

// TestFloodLists: the Fixed variant floods out of every spanning-tree
// port but the ingress one, from lists built once in New.
func TestFloodLists(t *testing.T) {
	tp, _, _ := topo.Cycle(3)
	a := New(Fixed, tp)
	st := spanningTreePorts(tp)
	for _, spec := range tp.Switches() {
		for _, in := range spec.Ports {
			var want []openflow.Action
			for _, p := range st[spec.ID] {
				if p != in {
					want = append(want, openflow.Output(p))
				}
			}
			ctx := newCtx()
			a.flood(ctx, spec.ID, in, 7)
			if got := ctx.Messages()[0].Actions; !slices.Equal(got, want) {
				t.Errorf("flood on %v from %v: %v, want %v", spec.ID, in, got, want)
			}
		}
	}
}

// FuzzMacTable applies a byte-coded sequence of join, leave, learn and
// port-down operations to a chain of clones, mirrored on a map-of-maps
// reference; other operations clone (freezing the parent) or freeze the
// parent, take two clones of it, and write to the one set aside. After
// every step the live clone renders like the reference, a changed
// rendering comes with a changed state version, and every frozen parent
// and every set-aside clone still renders as it did.
func FuzzMacTable(f *testing.F) {
	// Each op is three bytes: kind (join, leave, learn, port-down,
	// clone, sibling clone), then switch and destination, then MAC and
	// port.
	f.Add([]byte{0, 0, 0, 2, 0, 0, 4, 0, 0, 2, 0, 6})                   // a clone re-learns a moved host
	f.Add([]byte{0, 0, 0, 2, 0, 0, 2, 0, 7, 4, 0, 0, 3, 0, 0})          // a clone's port goes down
	f.Add([]byte{0, 0, 0, 2, 0, 0, 5, 0, 6, 2, 0, 6})                   // two clones of one parent both learn
	f.Add([]byte{0, 3, 0, 2, 3, 1, 4, 0, 0, 1, 3, 0, 0, 3, 0, 2, 3, 1}) // leave and rejoin off the topology
	tp, _, _ := topo.Linear(3)
	f.Fuzz(func(t *testing.T, ops []byte) {
		type frozen struct {
			a   controller.App
			key string
		}
		var held []frozen
		ref := macMap{}
		a := New(Fixed, tp)
		for len(ops) >= 3 {
			op, sw, dst := ops[0], openflow.SwitchID(ops[1]%4+1), openflow.EthAddr(ops[1]/4%6*2)
			mac, port := openflow.EthAddr(ops[2]%6*2), openflow.PortID(ops[2]/6%3+1)
			ops = ops[3:]
			before, v := a.StateKey(), a.StateVersion()
			switch op % 6 {
			case 0:
				a.SwitchJoin(newCtx(), sw)
				if ref[sw] == nil {
					ref[sw] = map[openflow.EthAddr]openflow.PortID{}
				}
			case 1:
				a.SwitchLeave(newCtx(), sw)
				delete(ref, sw)
			case 2:
				if ref[sw] == nil {
					continue // learning on an unjoined switch panics
				}
				h := ping()
				h.EthSrc, h.EthDst = mac, dst
				a.PacketIn(newCtx(), sw, sym.ConcretePacket(new(sym.Packet), h, port), 7, openflow.ReasonNoMatch)
				ref[sw][mac] = port
			case 3:
				a.PortStatus(newCtx(), sw, port, false)
				maps.DeleteFunc(ref[sw], func(_ openflow.EthAddr, p openflow.PortID) bool { return p == port })
			case 4:
				held = append(held, frozen{a, before})
				a = a.Clone().(*App)
			case 5:
				held = append(held, frozen{a, before})
				c := a.Clone().(*App)
				a = a.Clone().(*App)
				if ref[sw] != nil {
					c.learn(sw, mac, port%3+1)
				}
				held = append(held, frozen{c, c.StateKey()})
			}
			key := a.StateKey()
			if want := refKey(ref); key != want {
				t.Fatalf("op %d: clone renders %s, reference %s", op%6, key, want)
			}
			if key != before && a.StateVersion() == v {
				t.Fatalf("op %d changed the state (%s → %s) without a version bump", op%6, before, key)
			}
			for i, h := range held {
				if got := h.a.StateKey(); got != h.key {
					t.Fatalf("op %d: held instance %d changed: %s → %s", op%6, i, h.key, got)
				}
			}
		}
	})
}
