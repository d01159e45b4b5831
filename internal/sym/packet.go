package sym

import (
	"fmt"
	"strconv"

	"github.com/nice-go/nice/openflow"
)

// Packet is NICE's symbolic packet (§3.2): one lazily-tracked symbolic
// integer per header field, rather than an array of symbolic bytes. The
// same type carries concrete packets during model-checking transitions —
// then every field is a plain concrete Value and handlers run at full
// speed.
type Packet struct {
	fields [openflow.NumFields]Value
}

// ConcretePacket fills dst with a concrete header observed on inPort —
// all fields concrete, nothing recorded — and returns dst. The caller
// owns dst, so a dispatch loop refills one packet instead of allocating.
func ConcretePacket(dst *Packet, h openflow.Header, inPort openflow.PortID) *Packet {
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		dst.fields[f] = Concrete(openflow.FieldValue(h, inPort, f))
	}
	return dst
}

// fieldVars holds each header field's variable, boxed once for every
// symbolic packet to share; the in-port has none.
var fieldVars = func() (vs [openflow.NumFields]Expr) {
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		if f != openflow.FieldInPort {
			vs[f] = Var{Name: f.String(), Bits: f.Bits()}
		}
	}
	return vs
}()

// SymbolicPacket builds a packet whose header fields are symbolic
// variables instantiated from the given header; the in-port stays
// concrete because it is part of the client's location context, which
// discover_packets fixes before executing the handler (§3.3).
func SymbolicPacket(h openflow.Header, inPort openflow.PortID) *Packet {
	var p Packet
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		p.fields[f] = Value{C: openflow.FieldValue(h, inPort, f), E: fieldVars[f]}
	}
	return &p
}

// Field returns the concolic value of a header field.
func (p *Packet) Field(f openflow.Field) Value { return p.fields[f] }

// Convenience accessors for the fields the case-study applications use.

// EthSrc returns the source MAC field.
func (p *Packet) EthSrc() Value { return p.fields[openflow.FieldEthSrc] }

// EthDst returns the destination MAC field.
func (p *Packet) EthDst() Value { return p.fields[openflow.FieldEthDst] }

// EthType returns the EtherType field.
func (p *Packet) EthType() Value { return p.fields[openflow.FieldEthType] }

// IPSrc returns the IP source field.
func (p *Packet) IPSrc() Value { return p.fields[openflow.FieldIPSrc] }

// IPDst returns the IP destination field.
func (p *Packet) IPDst() Value { return p.fields[openflow.FieldIPDst] }

// IPProto returns the IP protocol field.
func (p *Packet) IPProto() Value { return p.fields[openflow.FieldIPProto] }

// TPSrc returns the transport source port field.
func (p *Packet) TPSrc() Value { return p.fields[openflow.FieldTPSrc] }

// TPDst returns the transport destination port field.
func (p *Packet) TPDst() Value { return p.fields[openflow.FieldTPDst] }

// TCPFlags returns the TCP flags field.
func (p *Packet) TCPFlags() Value { return p.fields[openflow.FieldTCPFlags] }

// ArpOp returns the ARP opcode field.
func (p *Packet) ArpOp() Value { return p.fields[openflow.FieldArpOp] }

// InPort returns the (always concrete) ingress port.
func (p *Packet) InPort() openflow.PortID {
	return openflow.PortID(p.fields[openflow.FieldInPort].C)
}

// Header materializes the concrete header of the current instantiation.
func (p *Packet) Header() openflow.Header {
	var h openflow.Header
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		if f == openflow.FieldInPort {
			continue
		}
		openflow.SetFieldValue(&h, f, p.fields[f].C)
	}
	return h
}

// ApplyAssignment re-instantiates the symbolic fields from a solver
// model, leaving fields the model does not mention at their current
// concrete values.
func (p *Packet) ApplyAssignment(a Assignment) {
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		if v, ok := a[f.String()]; ok {
			p.fields[f].C = v
		}
	}
}

// CurrentAssignment extracts the concrete instantiation of all symbolic
// fields.
func (p *Packet) CurrentAssignment() Assignment {
	a := make(Assignment)
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		if p.fields[f].IsSymbolic() {
			a[f.String()] = p.fields[f].C
		}
	}
	return a
}

func (p *Packet) String() string {
	return fmt.Sprintf("sympkt(%s@%v)", p.Header(), p.InPort())
}

// Stats is the symbolic counterpart of a stats reply: a vector of
// symbolic integers the statistics handler branches on. discover_stats
// executes the handler with these "symbolic integers as arguments"
// (§3.3) and derives the concrete utilization levels that drive distinct
// code paths.
type Stats struct {
	// ports lists the covered ports in order; for concrete stats its
	// TxBytes are the counters.
	ports []openflow.PortStats
	// values holds the symbolic counters, parallel to ports; nil for
	// concrete stats.
	values []Value
}

// ConcreteStats wraps concrete per-port transmit counters. The reply is
// read in place, not copied: the caller must not write it afterwards.
func ConcreteStats(stats []openflow.PortStats) *Stats {
	return &Stats{ports: stats}
}

// SymbolicStats builds a stats vector of symbolic variables named
// stat_tx_<port>, instantiated at the given seed values.
func SymbolicStats(ports []openflow.PortID, seed []uint64) *Stats {
	s := &Stats{ports: make([]openflow.PortStats, len(ports)), values: make([]Value, len(ports))}
	for i, p := range ports {
		var v uint64
		if i < len(seed) {
			v = seed[i]
		}
		s.ports[i].Port = p
		s.values[i] = Symbolic(StatVarName(p), 64, v)
	}
	return s
}

// StatVarName is the symbolic-variable name for a port's TX counter.
func StatVarName(p openflow.PortID) string {
	return "stat_tx_" + strconv.Itoa(int(p))
}

// value returns the (concolic) counter of the i-th port.
func (s *Stats) value(i int) Value {
	if s.values != nil {
		return s.values[i]
	}
	return Concrete(s.ports[i].TxBytes)
}

// TxBytes returns the (concolic) transmit byte counter for a port, or a
// concrete zero if the port is absent.
func (s *Stats) TxBytes(p openflow.PortID) Value {
	for i, ps := range s.ports {
		if ps.Port == p {
			return s.value(i)
		}
	}
	return Concrete(0)
}

// ApplyAssignment re-instantiates symbolic stats from a solver model,
// reading each counter's variable name off its expression.
func (s *Stats) ApplyAssignment(a Assignment) {
	for i := range s.values {
		if x, ok := s.values[i].E.(Var); ok {
			if v, ok := a[x.Name]; ok {
				s.values[i].C = v
			}
		}
	}
}

// Concrete materializes the current instantiation as wire stats.
func (s *Stats) Concrete() []openflow.PortStats {
	out := make([]openflow.PortStats, len(s.ports))
	for i, ps := range s.ports {
		out[i] = openflow.PortStats{Port: ps.Port, TxBytes: s.value(i).C}
	}
	return out
}
