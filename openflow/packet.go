package openflow

import (
	"fmt"
	"strconv"
	"strings"
)

// SwitchID identifies a switch in the modelled network.
type SwitchID int

// PortID identifies a port on a switch. Port numbering is per switch and
// starts at 1; PortNone marks "no port" contexts.
type PortID int

// HostID identifies an end host attached to the network.
type HostID int

// PortNone is the zero value used where no port applies.
const PortNone PortID = 0

func (s SwitchID) String() string { return fmt.Sprintf("s%d", int(s)) }
func (p PortID) String() string   { return fmt.Sprintf("p%d", int(p)) }
func (h HostID) String() string   { return fmt.Sprintf("h%d", int(h)) }

// EthAddr is a 48-bit Ethernet MAC address stored in the low bits of a
// uint64. The representation keeps addresses comparable and cheap to use
// as map keys, mirroring how NICE's symbolic packets treat a MAC address
// as a single 6-byte integer variable (§3.2).
type EthAddr uint64

// BroadcastEth is the all-ones broadcast address ff:ff:ff:ff:ff:ff.
const BroadcastEth EthAddr = 0xffffffffffff

// ethAddrMask keeps EthAddr values within 48 bits.
const ethAddrMask = (uint64(1) << 48) - 1

// MakeEthAddr builds an address from six octets, octet 0 first on the wire.
func MakeEthAddr(b0, b1, b2, b3, b4, b5 byte) EthAddr {
	return EthAddr(uint64(b0)<<40 | uint64(b1)<<32 | uint64(b2)<<24 |
		uint64(b3)<<16 | uint64(b4)<<8 | uint64(b5))
}

// Byte returns octet i (0 = first octet on the wire, as in pkt.src[0] of
// the paper's Figure 3 pseudo-code).
func (a EthAddr) Byte(i int) byte {
	if i < 0 || i > 5 {
		panic(fmt.Sprintf("openflow: EthAddr.Byte index %d out of range", i))
	}
	return byte(uint64(a) >> (uint(5-i) * 8))
}

// IsGroup reports whether the address has the group (multicast/broadcast)
// bit set — the low-order bit of the first octet, the exact predicate the
// MAC-learning application of Figure 3 computes as pkt.src[0] & 1.
func (a EthAddr) IsGroup() bool { return a.Byte(0)&1 == 1 }

// IsBroadcast reports whether the address is ff:ff:ff:ff:ff:ff.
func (a EthAddr) IsBroadcast() bool { return a == BroadcastEth }

func (a EthAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
		a.Byte(0), a.Byte(1), a.Byte(2), a.Byte(3), a.Byte(4), a.Byte(5))
}

// IPAddr is an IPv4 address in host byte order.
type IPAddr uint32

// MakeIPAddr builds an address from four octets.
func MakeIPAddr(b0, b1, b2, b3 byte) IPAddr {
	return IPAddr(uint32(b0)<<24 | uint32(b1)<<16 | uint32(b2)<<8 | uint32(b3))
}

func (ip IPAddr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip))
}

// Byte returns octet i (0 = most significant).
func (ip IPAddr) Byte(i int) byte {
	if i < 0 || i > 3 {
		panic(fmt.Sprintf("openflow: IPAddr.Byte index %d out of range", i))
	}
	return byte(uint32(ip) >> (uint(3-i) * 8))
}

// EtherTypes and IP protocol numbers used by the host models and the three
// applications. The values are the real wire constants so traces read
// naturally.
const (
	EthTypeIPv4 uint16 = 0x0800
	EthTypeARP  uint16 = 0x0806

	IPProtoTCP  uint8 = 6
	IPProtoUDP  uint8 = 17
	IPProtoICMP uint8 = 1
)

// TCP flag bits carried in Header.TCPFlags. The controller can branch on
// these (the paper notes controllers may inspect TCP flags or sequence
// numbers, §1.2), and the load-balancer application does.
const (
	TCPFin uint8 = 1 << 0
	TCPSyn uint8 = 1 << 1
	TCPRst uint8 = 1 << 2
	TCPPsh uint8 = 1 << 3
	TCPAck uint8 = 1 << 4
)

// ARP opcodes for Header.ArpOp.
const (
	ArpRequest uint8 = 1
	ArpReply   uint8 = 2
)

// Header is the set of packet header fields visible to switches and to the
// controller. It covers the OpenFlow 1.0 12-tuple (minus the physical
// in-port, which is context, not header) plus the TCP flags/sequence
// number and ARP opcode the case-study controllers inspect.
//
// Header is a comparable value type: it can key maps directly, in the
// spirit of gopacket's Endpoint/Flow values.
type Header struct {
	EthSrc   EthAddr
	EthDst   EthAddr
	EthType  uint16
	VLAN     uint16
	VLANPCP  uint8
	IPSrc    IPAddr
	IPDst    IPAddr
	IPProto  uint8
	IPTOS    uint8
	TPSrc    uint16 // transport source port
	TPDst    uint16 // transport destination port
	TCPFlags uint8
	TCPSeq   uint32
	ArpOp    uint8
	// Payload tags the application payload ("ping", "pong", ...). The
	// switch never inspects it; properties and host models use it to
	// describe end-to-end exchanges.
	Payload string
}

func (h Header) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s->%s", h.EthSrc, h.EthDst)
	switch h.EthType {
	case EthTypeIPv4:
		fmt.Fprintf(&b, " ip %s->%s proto=%d", h.IPSrc, h.IPDst, h.IPProto)
		if h.IPProto == IPProtoTCP || h.IPProto == IPProtoUDP {
			fmt.Fprintf(&b, " %d->%d", h.TPSrc, h.TPDst)
		}
		if h.IPProto == IPProtoTCP {
			fmt.Fprintf(&b, " flags=%s seq=%d", tcpFlagString(h.TCPFlags), h.TCPSeq)
		}
	case EthTypeARP:
		op := "req"
		if h.ArpOp == ArpReply {
			op = "rep"
		}
		fmt.Fprintf(&b, " arp-%s %s->%s", op, h.IPSrc, h.IPDst)
	default:
		fmt.Fprintf(&b, " type=0x%04x", h.EthType)
	}
	if h.Payload != "" {
		fmt.Fprintf(&b, " %q", h.Payload)
	}
	return b.String()
}

// Key renders every header field, losslessly — the form state hashing
// must use. String is a pretty, lossy rendering for humans; hashing with
// it would merge states that differ in unprinted fields.
func (h Header) Key() string {
	var buf [96]byte
	return string(h.appendKey(buf[:0]))
}

func tcpFlagString(f uint8) string {
	if f == 0 {
		return "-"
	}
	var parts []string
	for _, fl := range []struct {
		bit  uint8
		name string
	}{{TCPSyn, "S"}, {TCPAck, "A"}, {TCPFin, "F"}, {TCPRst, "R"}, {TCPPsh, "P"}} {
		if f&fl.bit != 0 {
			parts = append(parts, fl.name)
		}
	}
	return strings.Join(parts, "")
}

// PacketID uniquely identifies one packet instance in a system execution.
// Flooding copies a packet; each copy receives a fresh PacketID but keeps
// the original's Orig, so properties can account for copy balance
// (NoBlackHoles' "zero balance between the packet copies and packets
// consumed", §5.2).
type PacketID int64

// Packet is a concrete packet instance travelling through the modelled
// network: a header plus instance identity.
type Packet struct {
	Header
	// ID is this instance's unique identity.
	ID PacketID
	// Orig is the identity of the root packet this instance descends
	// from (equal to ID for packets injected by hosts).
	Orig PacketID
}

// Flow is a hashable descriptor of the packet's flow, used by the FLOW-IR
// search strategy and by the DirectPaths/StrictDirectPaths and
// FlowAffinity properties. Like gopacket's Flow, it is a comparable value
// usable as a map key.
type Flow struct {
	EthSrc, EthDst EthAddr
	EthType        uint16
	IPSrc, IPDst   IPAddr
	IPProto        uint8
	TPSrc, TPDst   uint16
}

// Flow extracts the packet's flow descriptor.
func (h Header) Flow() Flow {
	return Flow{
		EthSrc: h.EthSrc, EthDst: h.EthDst, EthType: h.EthType,
		IPSrc: h.IPSrc, IPDst: h.IPDst, IPProto: h.IPProto,
		TPSrc: h.TPSrc, TPDst: h.TPDst,
	}
}

// Reverse returns the flow with endpoints swapped at every layer, so that
// request and response directions of one conversation map onto each other.
func (f Flow) Reverse() Flow {
	return Flow{
		EthSrc: f.EthDst, EthDst: f.EthSrc, EthType: f.EthType,
		IPSrc: f.IPDst, IPDst: f.IPSrc, IPProto: f.IPProto,
		TPSrc: f.TPDst, TPDst: f.TPSrc,
	}
}

// Bidirectional returns a canonical key identical for a flow and its
// reverse, handy for grouping a conversation's two directions.
func (f Flow) Bidirectional() Flow {
	r := f.Reverse()
	if r.Less(f) {
		return r
	}
	return f
}

// Less orders flows field by field: the canonical order applications
// render flow-keyed state in (see AppendKey).
func (f Flow) Less(g Flow) bool {
	switch {
	case f.EthSrc != g.EthSrc:
		return f.EthSrc < g.EthSrc
	case f.EthDst != g.EthDst:
		return f.EthDst < g.EthDst
	case f.EthType != g.EthType:
		return f.EthType < g.EthType
	case f.IPSrc != g.IPSrc:
		return f.IPSrc < g.IPSrc
	case f.IPDst != g.IPDst:
		return f.IPDst < g.IPDst
	case f.IPProto != g.IPProto:
		return f.IPProto < g.IPProto
	case f.TPSrc != g.TPSrc:
		return f.TPSrc < g.TPSrc
	default:
		return f.TPDst < g.TPDst
	}
}

// AppendKey appends an injective rendering of the flow, for the
// StateKey encoders of applications that keep per-flow state.
func (f Flow) AppendKey(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(f.EthSrc), 16)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(f.EthDst), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.EthType), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(uint32(f.IPSrc)), 16)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(uint32(f.IPDst)), 16)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.IPProto), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(f.TPSrc), 10)
	b = append(b, '>')
	b = strconv.AppendUint(b, uint64(f.TPDst), 10)
	return b
}

func (f Flow) String() string {
	return fmt.Sprintf("%s->%s/%s->%s/%d->%d",
		f.EthSrc, f.EthDst, f.IPSrc, f.IPDst, f.TPSrc, f.TPDst)
}
