//go:build !race

package controller

import (
	"testing"

	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
)

// readerApp reads the packet and emits nothing, so a dispatch to it
// allocates only what the runtime itself allocates.
type readerApp struct {
	BaseApp
	sum uint64
}

func (a *readerApp) Name() string     { return "reader" }
func (a *readerApp) Clone() App       { c := *a; return &c }
func (a *readerApp) StateKey() string { return "" }

func (a *readerApp) PacketIn(ctx *Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, reason openflow.PacketInReason) {
	a.sum += pkt.EthDst().C + uint64(pkt.InPort())
}

// TestDispatchAllocs: a warm owned runtime runs a packet_in handler on
// its own context and packet, so the dispatch allocates neither. Like
// the other allocation budgets, the fence is off under -race.
func TestDispatchAllocs(t *testing.T) {
	rt := NewRuntime(&readerApp{})
	m := packetInMsg()
	rt.Dispatch(m)
	if n := testing.AllocsPerRun(100, func() { rt.Dispatch(m) }); n != 0 {
		t.Errorf("a warm packet_in dispatch allocates %.1f objects, want 0", n)
	}
}
