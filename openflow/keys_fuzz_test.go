package openflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/canon"
)

// This file fuzzes the hand-written canonical encoders of keys.go
// against two references: the historical fmt-based renderings they
// replaced (byte-for-byte equality) and the reflective canon.String walk
// (equality semantics: two values render equal iff they are equal).
// Run with `go test -fuzz FuzzHeaderKey ./openflow` (etc.); the
// seed corpus below runs on every plain `go test`.

// byteFeed deterministically derives values from fuzz input.
type byteFeed struct {
	data []byte
	pos  int
}

func (f *byteFeed) next() byte {
	if len(f.data) == 0 {
		return 0
	}
	b := f.data[f.pos%len(f.data)]
	f.pos++
	return b
}

func (f *byteFeed) u64(bytes int) uint64 {
	var v uint64
	for i := 0; i < bytes; i++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func headerFrom(f *byteFeed) Header {
	h := Header{
		EthSrc:   EthAddr(f.u64(6)),
		EthDst:   EthAddr(f.u64(6)),
		EthType:  uint16(f.u64(2)),
		VLAN:     uint16(f.u64(2)),
		VLANPCP:  f.next(),
		IPSrc:    IPAddr(uint32(f.u64(4))),
		IPDst:    IPAddr(uint32(f.u64(4))),
		IPProto:  f.next(),
		IPTOS:    f.next(),
		TPSrc:    uint16(f.u64(2)),
		TPDst:    uint16(f.u64(2)),
		TCPFlags: f.next(),
		TCPSeq:   uint32(f.u64(4)),
		ArpOp:    f.next(),
	}
	if f.next()&1 == 1 {
		h.Payload = fmt.Sprintf("p%d", f.next())
	}
	return h
}

// referenceHeaderKey is the fmt-based rendering Header.Key historically
// used.
func referenceHeaderKey(h Header) string {
	return fmt.Sprintf("%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%x|%s",
		uint64(h.EthSrc), uint64(h.EthDst), h.EthType, h.VLAN, h.VLANPCP,
		uint32(h.IPSrc), uint32(h.IPDst), h.IPProto, h.IPTOS,
		h.TPSrc, h.TPDst, h.TCPFlags, h.TCPSeq, h.ArpOp, h.Payload)
}

func FuzzHeaderKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff deadbeef payload bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		h1, h2 := headerFrom(feed), headerFrom(feed)
		for _, h := range []Header{h1, h2} {
			if got, want := h.Key(), referenceHeaderKey(h); got != want {
				t.Fatalf("Header.Key = %q, reference %q", got, want)
			}
		}
		// canon.String walks Header reflectively (it implements no
		// CanonicalString); its equality must coincide with Key equality.
		if (canon.String(h1) == canon.String(h2)) != (h1.Key() == h2.Key()) {
			t.Fatalf("canon.String and Key disagree on equality of %v vs %v", h1, h2)
		}
		if (h1 == h2) != (h1.Key() == h2.Key()) {
			t.Fatalf("Key is not injective for %v vs %v", h1, h2)
		}
	})
}

func matchFrom(f *byteFeed) Match {
	m := MatchAll()
	fields := f.next()
	for fld := Field(0); int(fld) < numMatchable; fld++ {
		if fields&(1<<uint(fld%8)) == 0 || f.next()&1 == 0 {
			continue
		}
		switch fld {
		case FieldIPSrc:
			m = m.WithIPSrcPrefix(IPAddr(uint32(f.u64(4))), 1+int(f.next()%32))
		case FieldIPDst:
			m = m.WithIPDstPrefix(IPAddr(uint32(f.u64(4))), 1+int(f.next()%32))
		case FieldEthSrc, FieldEthDst:
			m = m.With(fld, f.u64(6))
		default:
			m = m.With(fld, f.u64(2))
		}
	}
	return m
}

// referenceMatchKey is the fmt-based rendering Match.Key historically
// used.
func referenceMatchKey(m Match) string {
	if m.present == 0 {
		return "*"
	}
	var b strings.Builder
	first := true
	for f := Field(0); int(f) < numMatchable; f++ {
		if !m.Has(f) {
			continue
		}
		if !first {
			b.WriteByte(',')
		}
		first = false
		switch f {
		case FieldIPSrc:
			fmt.Fprintf(&b, "%v=%s/%d", f, IPAddr(uint32(m.values[f])), m.ipSrcBits)
		case FieldIPDst:
			fmt.Fprintf(&b, "%v=%s/%d", f, IPAddr(uint32(m.values[f])), m.ipDstBits)
		case FieldEthSrc, FieldEthDst:
			fmt.Fprintf(&b, "%v=%s", f, EthAddr(m.values[f]))
		default:
			fmt.Fprintf(&b, "%v=%d", f, m.values[f])
		}
	}
	return b.String()
}

func FuzzMatchKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x0f, 0xf0, 200, 100, 50, 25, 12, 6, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		m1, m2 := matchFrom(feed), matchFrom(feed)
		for _, m := range []Match{m1, m2} {
			if got, want := m.Key(), referenceMatchKey(m); got != want {
				t.Fatalf("Match.Key = %q, reference %q", got, want)
			}
			// The canon.Stringer hook must route canon.String through
			// the hand-written encoder.
			if got := canon.String(m); got != m.Key() {
				t.Fatalf("canon.String(match) = %q, CanonicalString %q", got, m.Key())
			}
		}
		if (m1.Key() == m2.Key()) != m1.Equal(m2) {
			t.Fatalf("Key equality disagrees with Match.Equal for %q vs %q", m1.Key(), m2.Key())
		}
	})
}

func rulesFrom(f *byteFeed) []Rule {
	n := int(f.next()%5) + 1
	rules := make([]Rule, 0, n)
	for i := 0; i < n; i++ {
		r := Rule{
			Priority:    int(f.next() % 16),
			Match:       matchFrom(f),
			IdleTimeout: int(f.next() % 8),
			HardTimeout: int(f.next() % 8),
			PacketCount: uint64(f.next()),
			ByteCount:   uint64(f.next()) * 100,
		}
		for j := int(f.next() % 3); j >= 0; j-- {
			switch f.next() % 4 {
			case 0:
				r.Actions = append(r.Actions, Output(PortID(f.next()%4+1)))
			case 1:
				r.Actions = append(r.Actions, Flood())
			case 2:
				r.Actions = append(r.Actions, SetField(FieldEthDst, f.u64(6)))
			default:
				r.Actions = append(r.Actions, ToController())
			}
		}
		rules = append(rules, r)
	}
	return rules
}

// FuzzFlowTableCanonical asserts the canonical flow-table key is
// insertion-order independent (the §2.2.2 "merging equivalent flow
// tables" reduction) and agrees with a reflective canon.String-based
// canonicalization of the same rule multiset.
func FuzzFlowTableCanonical(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}, int64(42))
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 7, 7, 7, 1, 2, 3}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		feed := &byteFeed{data: data}
		rules := rulesFrom(feed)

		t1 := NewFlowTable()
		for _, r := range rules {
			t1.Install(r)
		}
		t2 := NewFlowTable()
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(rules)) {
			t2.Install(rules[i])
		}
		// Install replaces same-priority/same-match rules, so the two
		// tables hold the same multiset only when all (priority, match)
		// pairs are distinct; skip shuffles that collapsed rules.
		if t1.Len() != t2.Len() || t1.Len() != len(rules) {
			t.Skip("duplicate (priority, match) pairs collapsed")
		}
		if k1, k2 := t1.RenderCanonicalKey(false), t2.RenderCanonicalKey(false); k1 != k2 {
			t.Fatalf("canonical keys differ across insertion orders:\n%s\nvs\n%s", k1, k2)
		}
		// The reflective cross-check: canonicalize via canon.String of
		// each rule (counters excluded by zeroing them), sorted.
		strip := func(rs []Rule) map[string]int {
			set := make(map[string]int)
			for _, r := range rs {
				r.PacketCount, r.ByteCount, r.Age, r.IdleAge = 0, 0, 0, 0
				set[canon.String(r)]++
			}
			return set
		}
		s1, s2 := strip(t1.Rules()), strip(t2.Rules())
		if len(s1) != len(s2) {
			t.Fatalf("reflective rule multisets differ in size")
		}
		for k, n := range s1 {
			if s2[k] != n {
				t.Fatalf("reflective rule multisets differ at %q", k)
			}
		}
	})
}
