package energyte

import (
	"slices"
	"testing"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

func TestBarrierVariantParksPacketUntilAcks(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	app.UseBarriers = true
	statsReply(app, threshold+100) // high load: BUG-X level routes on-demand (3 hops)
	ctx := newCtx()
	dispatch(app, ctx, 1, flowTo(topo.MACHostB, topo.IPHostB), 1)

	msgs := ctx.Messages()
	var installs, barriers, packetOuts int
	var xids []int
	for _, m := range msgs {
		switch m.Type {
		case openflow.MsgFlowMod:
			installs++
		case openflow.MsgBarrierRequest:
			barriers++
			xids = append(xids, m.Xid)
		case openflow.MsgPacketOut:
			packetOuts++
		}
	}
	if installs != 3 || barriers != 2 || packetOuts != 0 {
		t.Fatalf("installs=%d barriers=%d packet_outs=%d (want 3/2/0)", installs, barriers, packetOuts)
	}
	if app.pending.Len() != 1 {
		t.Fatalf("pending releases: %d", app.pending.Len())
	}

	// First ack: still parked. Second ack: released.
	ctx2 := newCtx()
	app.BarrierReply(ctx2, 3, xids[0])
	if len(ctx2.Messages()) != 0 || app.pending.Len() != 1 {
		t.Fatal("released after only one barrier ack")
	}
	ctx3 := newCtx()
	app.BarrierReply(ctx3, 2, xids[1])
	if len(ctx3.Messages()) != 1 || ctx3.Messages()[0].Type != openflow.MsgPacketOut {
		t.Fatalf("release messages: %v", ctx3.Messages())
	}
	if app.pending.Len() != 0 {
		t.Error("pending entry not cleared")
	}
}

func TestBarrierReplyForUnknownXidIsNoOp(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	app.UseBarriers = true
	ctx := newCtx()
	app.BarrierReply(ctx, 2, 999)
	if len(ctx.Messages()) != 0 {
		t.Error("unknown xid produced output")
	}
}

func TestBarrierVariantCloneIsolation(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	app.UseBarriers = true
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	if app.pending.Len() != 0 {
		// Always-on path has one downstream switch: one barrier.
		t.Logf("pending after always-on install: %d", app.pending.Len())
	}
	c := app.Clone().(*App)
	var xid int
	for _, p := range c.pending.View() {
		for _, x := range p.Waiting {
			xid = x
		}
	}
	c.BarrierReply(controller.NewContext(nil), 2, xid)
	if app.pending.Len() == c.pending.Len() {
		t.Error("clone ack mutated original's pending set (or no pending existed)")
	}
}

// TestBarrierAckCloneIsolation: a clone's first barrier ack, which
// leaves the packet parked on the second, changes neither the
// original's pending entry nor the xids it still waits for.
func TestBarrierAckCloneIsolation(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	app.UseBarriers = true
	statsReply(app, threshold+100) // on-demand path: two barriers
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	if app.pending.Len() != 1 || len(app.pending.View()[0].Waiting) != 2 {
		t.Fatalf("pending = %+v, want one packet on two barriers", app.pending.View())
	}
	waiting := slices.Clone(app.pending.View()[0].Waiting)
	key := app.StateKey()
	c := app.Clone().(*App)
	c.BarrierReply(newCtx(), 3, waiting[0])
	if got := c.pending.View(); len(got) != 1 || !slices.Equal(got[0].Waiting, waiting[1:]) {
		t.Errorf("clone pending = %+v, want one packet on %v", got, waiting[1:])
	}
	if got := app.pending.View()[0].Waiting; !slices.Equal(got, waiting) || app.StateKey() != key {
		t.Errorf("clone's ack changed the original: waiting %v, want %v", got, waiting)
	}
}
