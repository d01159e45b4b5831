package openflow

import "fmt"

// BufferID identifies a packet parked in a switch's awaiting-controller
// buffer. BufferNone means the message carries no buffered packet.
type BufferID int32

// BufferNone marks the absence of a buffer reference (OpenFlow's
// 0xffffffff "no buffer" sentinel, modelled as -1).
const BufferNone BufferID = -1

// PacketInReason says why a switch sent a packet_in. BUG-V in the paper
// hinges on controllers distinguishing these (§8.2): rules with a
// controller action produce ReasonAction, table misses produce
// ReasonNoMatch.
type PacketInReason uint8

const (
	// ReasonNoMatch: no flow-table rule matched the packet.
	ReasonNoMatch PacketInReason = iota
	// ReasonAction: an installed rule explicitly directed the packet to
	// the controller.
	ReasonAction
)

func (r PacketInReason) String() string {
	if r == ReasonAction {
		return "action"
	}
	return "no_match"
}

// MsgType enumerates the OpenFlow protocol messages the simplified model
// exchanges. Controller→switch: FlowMod, PacketOut, StatsRequest,
// BarrierRequest. Switch→controller: PacketIn, StatsReply, BarrierReply,
// plus the SwitchJoin/SwitchLeave/PortStatus events.
type MsgType int

const (
	MsgFlowMod MsgType = iota
	MsgPacketOut
	MsgStatsRequest
	MsgBarrierRequest

	MsgPacketIn
	MsgStatsReply
	MsgBarrierReply
	MsgSwitchJoin
	MsgSwitchLeave
	MsgPortStatus
)

func (t MsgType) String() string {
	switch t {
	case MsgFlowMod:
		return "flow_mod"
	case MsgPacketOut:
		return "packet_out"
	case MsgStatsRequest:
		return "stats_request"
	case MsgBarrierRequest:
		return "barrier_request"
	case MsgPacketIn:
		return "packet_in"
	case MsgStatsReply:
		return "stats_reply"
	case MsgBarrierReply:
		return "barrier_reply"
	case MsgSwitchJoin:
		return "switch_join"
	case MsgSwitchLeave:
		return "switch_leave"
	case MsgPortStatus:
		return "port_status"
	default:
		return fmt.Sprintf("msg(%d)", int(t))
	}
}

// FlowModCmd selects the flow_mod operation.
type FlowModCmd int

const (
	// FlowAdd installs a rule, replacing any rule with an identical
	// match and priority.
	FlowAdd FlowModCmd = iota
	// FlowDelete removes every rule whose match is subsumed by the
	// flow_mod's match (OpenFlow "loose" delete).
	FlowDelete
	// FlowDeleteStrict removes only rules whose match and priority are
	// identical.
	FlowDeleteStrict
)

func (c FlowModCmd) String() string {
	switch c {
	case FlowAdd:
		return "add"
	case FlowDelete:
		return "delete"
	case FlowDeleteStrict:
		return "delete_strict"
	default:
		return fmt.Sprintf("cmd(%d)", int(c))
	}
}

// PortStats is the per-port counter snapshot carried by stats replies.
// The energy-efficient TE application decides between its always-on and
// on-demand routing tables from these (§8.3). During discover_stats the
// values are symbolic; concrete instances flow through this struct.
type PortStats struct {
	Port    PortID
	TxBytes uint64
	RxBytes uint64
}

// Msg is one OpenFlow message. A single concrete struct (rather than an
// interface per message) keeps messages trivially comparable, cloneable
// and hashable for the model checker; unused fields stay zero.
type Msg struct {
	Type MsgType

	// Switch is the peer switch: destination for controller→switch
	// messages, source for switch→controller messages.
	Switch SwitchID

	// FlowMod fields.
	Cmd  FlowModCmd
	Rule Rule // for FlowAdd; for deletes only Match/Priority are used

	// PacketOut / PacketIn fields.
	Buffer  BufferID
	Packet  Packet // inline packet for buffer-less packet_out; copy of the header for packet_in
	InPort  PortID
	Actions []Action
	Reason  PacketInReason

	// Stats fields.
	StatsPort PortID      // stats_request: which port (PortNone = all)
	Stats     []PortStats // stats_reply payload

	// PortUp is the new link state carried by port_status.
	PortUp bool

	// Barrier correlation id.
	Xid int

	// Seq is a monotonically increasing issue number stamped by the
	// controller runtime on controller→switch messages. The UNUSUAL
	// search strategy uses it to construct reverse-issue-order
	// deliveries (§4).
	Seq int

	// keyHash memoizes the structural hash for enqueued (immutable)
	// messages; see MemoKeyHash. Zero means not memoized.
	keyHash uint64
}

// Clone deep-copies the message.
func (m Msg) Clone() Msg {
	m.Actions = CloneActions(m.Actions)
	if m.Stats != nil {
		s := make([]PortStats, len(m.Stats))
		copy(s, m.Stats)
		m.Stats = s
	}
	return m
}

func (m Msg) String() string {
	switch m.Type {
	case MsgFlowMod:
		if m.Cmd == FlowAdd {
			return fmt.Sprintf("flow_mod add %s", m.Rule)
		}
		return fmt.Sprintf("flow_mod %s match=[%s] prio=%d", m.Cmd, m.Rule.Match.Key(), m.Rule.Priority)
	case MsgPacketOut:
		if m.Buffer != BufferNone {
			return fmt.Sprintf("packet_out buf=%d actions=[%s]", m.Buffer, ActionsKey(m.Actions))
		}
		return fmt.Sprintf("packet_out pkt=(%s) actions=[%s]", m.Packet.Header, ActionsKey(m.Actions))
	case MsgPacketIn:
		return fmt.Sprintf("packet_in %v port=%d buf=%d reason=%s pkt=(%s)",
			m.Switch, int(m.InPort), m.Buffer, m.Reason, m.Packet.Header)
	case MsgStatsRequest:
		return fmt.Sprintf("stats_request %v port=%d", m.Switch, int(m.StatsPort))
	case MsgStatsReply:
		return fmt.Sprintf("stats_reply %v %v", m.Switch, m.Stats)
	case MsgBarrierRequest:
		return fmt.Sprintf("barrier_request xid=%d", m.Xid)
	case MsgBarrierReply:
		return fmt.Sprintf("barrier_reply %v xid=%d", m.Switch, m.Xid)
	case MsgSwitchJoin:
		return fmt.Sprintf("switch_join %v", m.Switch)
	case MsgSwitchLeave:
		return fmt.Sprintf("switch_leave %v", m.Switch)
	case MsgPortStatus:
		return fmt.Sprintf("port_status %v port=%d up=%t", m.Switch, int(m.InPort), m.PortUp)
	default:
		return m.Type.String()
	}
}

// Key renders the message canonically: the oracle-side string the
// structural hash (FreshKeyHash64) mirrors field for field. Unlike
// String, packet headers render losslessly.
func (m Msg) Key() string {
	var buf [256]byte
	return string(m.appendKey(buf[:0]))
}

// KeyHash64 is the message's structural hash: the memo when MemoKeyHash
// stored one, a fresh computation otherwise.
func (m Msg) KeyHash64() uint64 {
	if m.keyHash != 0 {
		return m.keyHash
	}
	return m.FreshKeyHash64()
}

// MemoKeyHash returns a copy of m with KeyHash64 precomputed. The
// controller runtime calls it as messages are enqueued — channel hashes
// re-combine on every queue mutation, so each immutable message is
// hashed once; the message must not be mutated afterwards (enqueued
// messages never are).
func (m Msg) MemoKeyHash() Msg {
	m.keyHash = m.FreshKeyHash64()
	return m
}
