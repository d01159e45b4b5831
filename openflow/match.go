package openflow

import (
	"fmt"
)

// Field enumerates the matchable header fields (the OpenFlow 1.0
// 12-tuple). It doubles as the variable namespace of the symbolic packets
// in internal/sym: every Field is one symbolic integer variable.
type Field int

const (
	FieldInPort Field = iota
	FieldEthSrc
	FieldEthDst
	FieldEthType
	FieldVLAN
	FieldVLANPCP
	FieldIPSrc
	FieldIPDst
	FieldIPProto
	FieldIPTOS
	FieldTPSrc
	FieldTPDst
	// The remaining fields are not matchable by switches (OpenFlow 1.0
	// cannot match TCP flags) but are visible to the controller and so
	// participate in symbolic packets.
	FieldTCPFlags
	FieldTCPSeq
	FieldArpOp

	numFields
)

// NumFields is the number of distinct Field values.
const NumFields = int(numFields)

var fieldNames = [...]string{
	FieldInPort:   "in_port",
	FieldEthSrc:   "dl_src",
	FieldEthDst:   "dl_dst",
	FieldEthType:  "dl_type",
	FieldVLAN:     "dl_vlan",
	FieldVLANPCP:  "dl_vlan_pcp",
	FieldIPSrc:    "nw_src",
	FieldIPDst:    "nw_dst",
	FieldIPProto:  "nw_proto",
	FieldIPTOS:    "nw_tos",
	FieldTPSrc:    "tp_src",
	FieldTPDst:    "tp_dst",
	FieldTCPFlags: "tcp_flags",
	FieldTCPSeq:   "tcp_seq",
	FieldArpOp:    "arp_op",
}

func (f Field) String() string {
	if f < 0 || int(f) >= len(fieldNames) {
		return fmt.Sprintf("field(%d)", int(f))
	}
	return fieldNames[f]
}

// Bits returns the width in bits of the field's value domain.
func (f Field) Bits() int {
	switch f {
	case FieldEthSrc, FieldEthDst:
		return 48
	case FieldIPSrc, FieldIPDst, FieldTCPSeq:
		return 32
	case FieldEthType, FieldVLAN, FieldTPSrc, FieldTPDst, FieldInPort:
		return 16
	default:
		return 8
	}
}

// FieldValue extracts field f from a header observed on inPort. All field
// values widen to uint64, matching the symbolic integer representation.
func FieldValue(h Header, inPort PortID, f Field) uint64 {
	switch f {
	case FieldInPort:
		return uint64(inPort)
	case FieldEthSrc:
		return uint64(h.EthSrc)
	case FieldEthDst:
		return uint64(h.EthDst)
	case FieldEthType:
		return uint64(h.EthType)
	case FieldVLAN:
		return uint64(h.VLAN)
	case FieldVLANPCP:
		return uint64(h.VLANPCP)
	case FieldIPSrc:
		return uint64(h.IPSrc)
	case FieldIPDst:
		return uint64(h.IPDst)
	case FieldIPProto:
		return uint64(h.IPProto)
	case FieldIPTOS:
		return uint64(h.IPTOS)
	case FieldTPSrc:
		return uint64(h.TPSrc)
	case FieldTPDst:
		return uint64(h.TPDst)
	case FieldTCPFlags:
		return uint64(h.TCPFlags)
	case FieldTCPSeq:
		return uint64(h.TCPSeq)
	case FieldArpOp:
		return uint64(h.ArpOp)
	default:
		panic(fmt.Sprintf("openflow: FieldValue of unknown field %d", int(f)))
	}
}

// SetFieldValue writes field f into the header (FieldInPort cannot be set).
// It is used both to construct representative packets from solver models
// and to implement header-rewriting actions.
func SetFieldValue(h *Header, f Field, v uint64) {
	switch f {
	case FieldEthSrc:
		h.EthSrc = EthAddr(v & ethAddrMask)
	case FieldEthDst:
		h.EthDst = EthAddr(v & ethAddrMask)
	case FieldEthType:
		h.EthType = uint16(v)
	case FieldVLAN:
		h.VLAN = uint16(v)
	case FieldVLANPCP:
		h.VLANPCP = uint8(v)
	case FieldIPSrc:
		h.IPSrc = IPAddr(uint32(v))
	case FieldIPDst:
		h.IPDst = IPAddr(uint32(v))
	case FieldIPProto:
		h.IPProto = uint8(v)
	case FieldIPTOS:
		h.IPTOS = uint8(v)
	case FieldTPSrc:
		h.TPSrc = uint16(v)
	case FieldTPDst:
		h.TPDst = uint16(v)
	case FieldTCPFlags:
		h.TCPFlags = uint8(v)
	case FieldTCPSeq:
		h.TCPSeq = uint32(v)
	case FieldArpOp:
		h.ArpOp = uint8(v)
	default:
		panic(fmt.Sprintf("openflow: SetFieldValue of unsettable field %v", f))
	}
}

// Match is an OpenFlow 1.0-style pattern: every matchable field is either
// wildcarded or constrained. The IP source/destination fields support
// CIDR-prefix matching (required by the load-balancer application's
// wildcard rules over client IP prefixes); all other fields are
// exact-match when present.
//
// The zero Match wildcards everything and matches every packet.
type Match struct {
	present uint32 // bitmask over Field indices (matchable fields only)
	values  [numMatchable]uint64
	// ipSrcBits / ipDstBits are the CIDR prefix lengths for FieldIPSrc /
	// FieldIPDst when those fields are present; 32 means exact.
	ipSrcBits, ipDstBits uint8
}

// numMatchable is the count of fields a switch can match on
// (FieldInPort..FieldTPDst).
const numMatchable = int(FieldTPDst) + 1

// Matchable reports whether the field can appear in a switch match.
func (f Field) Matchable() bool { return int(f) < numMatchable }

// MatchAll returns the match that wildcards every field.
func MatchAll() Match { return Match{} }

// With returns a copy of m with an exact-match constraint on field f.
func (m Match) With(f Field, v uint64) Match {
	if !f.Matchable() {
		panic(fmt.Sprintf("openflow: field %v is not matchable by switches", f))
	}
	m.present |= 1 << uint(f)
	m.values[f] = v
	switch f {
	case FieldIPSrc:
		m.ipSrcBits = 32
	case FieldIPDst:
		m.ipDstBits = 32
	}
	return m
}

// WithIPSrcPrefix constrains the IP source to a CIDR prefix of the given
// length (0 < bits <= 32). The load balancer's wildcard rules partition
// client address space this way.
func (m Match) WithIPSrcPrefix(ip IPAddr, bits int) Match {
	if bits <= 0 || bits > 32 {
		panic(fmt.Sprintf("openflow: bad prefix length %d", bits))
	}
	m.present |= 1 << uint(FieldIPSrc)
	m.values[FieldIPSrc] = uint64(ip) & uint64(prefixMask(bits))
	m.ipSrcBits = uint8(bits)
	return m
}

// WithIPDstPrefix constrains the IP destination to a CIDR prefix.
func (m Match) WithIPDstPrefix(ip IPAddr, bits int) Match {
	if bits <= 0 || bits > 32 {
		panic(fmt.Sprintf("openflow: bad prefix length %d", bits))
	}
	m.present |= 1 << uint(FieldIPDst)
	m.values[FieldIPDst] = uint64(ip) & uint64(prefixMask(bits))
	m.ipDstBits = uint8(bits)
	return m
}

func prefixMask(bits int) uint32 {
	if bits == 0 {
		return 0
	}
	return ^uint32(0) << uint(32-bits)
}

// Has reports whether the match constrains field f.
func (m Match) Has(f Field) bool { return m.present&(1<<uint(f)) != 0 }

// Value returns the constraint value for field f (and whether present).
func (m Match) Value(f Field) (uint64, bool) {
	if !m.Has(f) {
		return 0, false
	}
	return m.values[f], true
}

// IsExact reports whether every matchable field is constrained exactly —
// a microflow rule in the paper's terminology.
func (m Match) IsExact() bool {
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			return false
		}
	}
	return m.ipSrcBits == 32 && m.ipDstBits == 32
}

// Matches reports whether a packet header arriving on inPort satisfies
// the pattern.
func (m *Match) Matches(h Header, inPort PortID) bool {
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue
		}
		got := FieldValue(h, inPort, f)
		switch f {
		case FieldIPSrc:
			if got&uint64(prefixMask(int(m.ipSrcBits))) != m.values[f] {
				return false
			}
		case FieldIPDst:
			if got&uint64(prefixMask(int(m.ipDstBits))) != m.values[f] {
				return false
			}
		default:
			if got != m.values[f] {
				return false
			}
		}
	}
	return true
}

// Subsumes reports whether every packet matched by other is also matched
// by m (m is equal or strictly more general). Used for OpenFlow "loose"
// delete semantics.
func (m Match) Subsumes(other Match) bool {
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue // m wildcards f: anything other does is fine
		}
		if !other.Has(f) {
			return false // m constrains f but other does not
		}
		switch f {
		case FieldIPSrc:
			if m.ipSrcBits > other.ipSrcBits {
				return false
			}
			mask := uint64(prefixMask(int(m.ipSrcBits)))
			if other.values[f]&mask != m.values[f] {
				return false
			}
		case FieldIPDst:
			if m.ipDstBits > other.ipDstBits {
				return false
			}
			mask := uint64(prefixMask(int(m.ipDstBits)))
			if other.values[f]&mask != m.values[f] {
				return false
			}
		default:
			if m.values[f] != other.values[f] {
				return false
			}
		}
	}
	return true
}

// Equal reports structural equality of two matches.
func (m Match) Equal(other Match) bool { return m == other }

// Key returns a canonical, deterministic string form. Fields appear in
// Field order, so two structurally equal matches always produce the same
// key. This is the building block of the canonical flow-table
// representation (§2.2.2 "Merging equivalent flow tables").
func (m Match) Key() string {
	if m.present == 0 {
		return "*"
	}
	var buf [160]byte
	return string(m.appendKey(buf[:0]))
}

func (m Match) String() string { return m.Key() }

// CanonicalString implements canon.Stringer, so reflective canonical
// rendering of values embedding a Match delegates to the hand-written
// encoder.
func (m Match) CanonicalString() string { return m.Key() }

// ExactMatch builds the microflow match for a header observed on inPort:
// every matchable field pinned to the packet's value. This is the common
// "install a rule for this exact flow" idiom.
func ExactMatch(h Header, inPort PortID) Match {
	m := MatchAll()
	for f := Field(0); int(f) < numMatchable; f++ {
		m = m.With(f, FieldValue(h, inPort, f))
	}
	return m
}
