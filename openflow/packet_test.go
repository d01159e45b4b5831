package openflow

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMakeEthAddrAndBytes(t *testing.T) {
	a := MakeEthAddr(0x01, 0x23, 0x45, 0x67, 0x89, 0xab)
	want := [6]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab}
	for i, w := range want {
		if got := a.Byte(i); got != w {
			t.Errorf("Byte(%d) = %#x, want %#x", i, got, w)
		}
	}
	if a.String() != "01:23:45:67:89:ab" {
		t.Errorf("String() = %q", a.String())
	}
}

func TestEthAddrRoundTrip(t *testing.T) {
	f := func(b0, b1, b2, b3, b4, b5 byte) bool {
		a := MakeEthAddr(b0, b1, b2, b3, b4, b5)
		return a.Byte(0) == b0 && a.Byte(1) == b1 && a.Byte(2) == b2 &&
			a.Byte(3) == b3 && a.Byte(4) == b4 && a.Byte(5) == b5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEthAddrGroupBit(t *testing.T) {
	cases := []struct {
		addr  EthAddr
		group bool
	}{
		{MakeEthAddr(0x00, 0, 0, 0, 0, 1), false},
		{MakeEthAddr(0x01, 0, 0, 0, 0, 1), true}, // multicast bit set
		{BroadcastEth, true},
		{MakeEthAddr(0xfe, 0xff, 0xff, 0xff, 0xff, 0xff), false},
	}
	for _, c := range cases {
		if got := c.addr.IsGroup(); got != c.group {
			t.Errorf("%v IsGroup = %t, want %t", c.addr, got, c.group)
		}
	}
	if !BroadcastEth.IsBroadcast() {
		t.Error("BroadcastEth not recognized")
	}
	if MakeEthAddr(1, 2, 3, 4, 5, 6).IsBroadcast() {
		t.Error("non-broadcast recognized as broadcast")
	}
}

func TestEthAddrByteOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Byte(6) did not panic")
		}
	}()
	_ = EthAddr(0).Byte(6)
}

func TestIPAddr(t *testing.T) {
	ip := MakeIPAddr(10, 0, 0, 1)
	if ip.String() != "10.0.0.1" {
		t.Errorf("String() = %q", ip.String())
	}
	if ip.Byte(0) != 10 || ip.Byte(3) != 1 {
		t.Errorf("Byte extraction wrong: %d %d", ip.Byte(0), ip.Byte(3))
	}
}

func TestHeaderStringForms(t *testing.T) {
	tcp := Header{
		EthSrc: MakeEthAddr(0, 0, 0, 0, 0, 2), EthDst: MakeEthAddr(0, 0, 0, 0, 0, 4),
		EthType: EthTypeIPv4, IPSrc: MakeIPAddr(10, 0, 0, 1), IPDst: MakeIPAddr(10, 0, 0, 2),
		IPProto: IPProtoTCP, TPSrc: 1234, TPDst: 80, TCPFlags: TCPSyn | TCPAck,
	}
	s := tcp.String()
	for _, want := range []string{"10.0.0.1", "10.0.0.2", "1234->80", "flags=SA"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	arp := Header{EthType: EthTypeARP, ArpOp: ArpReply}
	if !strings.Contains(arp.String(), "arp-rep") {
		t.Errorf("ARP reply renders as %q", arp.String())
	}
}

// TestHeaderKeyLossless is the regression test for the state-collision
// bug: two headers differing in any field must produce distinct keys.
func TestHeaderKeyLossless(t *testing.T) {
	base := Header{EthType: EthTypeARP, ArpOp: ArpRequest}
	variants := []Header{
		{EthType: EthTypeARP, ArpOp: 0},
		{EthType: EthTypeARP, ArpOp: ArpReply},
		{EthType: EthTypeARP, ArpOp: ArpRequest, TCPFlags: TCPSyn},
		{EthType: EthTypeARP, ArpOp: ArpRequest, TPSrc: 5555},
		{EthType: EthTypeARP, ArpOp: ArpRequest, VLAN: 7},
		{EthType: EthTypeARP, ArpOp: ArpRequest, IPTOS: 1},
		{EthType: EthTypeARP, ArpOp: ArpRequest, TCPSeq: 9},
		{EthType: EthTypeARP, ArpOp: ArpRequest, Payload: "x"},
	}
	for i, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("variant %d collides with base: %q", i, v.Key())
		}
	}
}

func TestHeaderKeyQuick(t *testing.T) {
	f := func(aSrc, bSrc uint64, aFlags, bFlags uint8, aOp, bOp uint8) bool {
		a := Header{EthSrc: EthAddr(aSrc & ethAddrMask), TCPFlags: aFlags, ArpOp: aOp}
		b := Header{EthSrc: EthAddr(bSrc & ethAddrMask), TCPFlags: bFlags, ArpOp: bOp}
		if a == b {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowReverseAndBidirectional(t *testing.T) {
	h := Header{
		EthSrc: MakeEthAddr(0, 0, 0, 0, 0, 2), EthDst: MakeEthAddr(0, 0, 0, 0, 0, 4),
		EthType: EthTypeIPv4, IPSrc: MakeIPAddr(1, 1, 1, 1), IPDst: MakeIPAddr(2, 2, 2, 2),
		IPProto: IPProtoTCP, TPSrc: 10, TPDst: 20,
	}
	f := h.Flow()
	r := f.Reverse()
	if r.EthSrc != f.EthDst || r.IPSrc != f.IPDst || r.TPSrc != f.TPDst {
		t.Errorf("Reverse did not swap endpoints: %v", r)
	}
	if r.Reverse() != f {
		t.Error("double Reverse is not identity")
	}
	if f.Bidirectional() != r.Bidirectional() {
		t.Error("Bidirectional differs between directions")
	}
}

func TestFlowBidirectionalQuick(t *testing.T) {
	f := func(src, dst uint64, sp, dp uint16) bool {
		h := Header{
			EthSrc: EthAddr(src & ethAddrMask), EthDst: EthAddr(dst & ethAddrMask),
			TPSrc: sp, TPDst: dp,
		}
		fl := h.Flow()
		return fl.Bidirectional() == fl.Reverse().Bidirectional()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIDAlloc(t *testing.T) {
	a := NewIDAlloc()
	first := a.Next()
	second := a.Next()
	if first == second {
		t.Error("allocator returned duplicate IDs")
	}
	c := *a // a System fork copies its allocator by value
	if a.Next() != c.Next() {
		t.Error("copied allocator diverged")
	}
}
