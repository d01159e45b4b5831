package openflow

import (
	"math/rand"
	"testing"
)

func ruleOut(prio int, m Match, port PortID) Rule {
	return Rule{Priority: prio, Match: m, Actions: []Action{Output(port)}}
}

func TestInstallAndLookup(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(ruleOut(5, MatchAll().With(FieldEthType, uint64(EthTypeIPv4)), 2))
	idx, ok := ft.Lookup(hdrAB(), 1)
	if !ok {
		t.Fatal("lookup missed")
	}
	if ft.Rules()[idx].Actions[0].Port != 2 {
		t.Error("wrong rule matched")
	}
	if _, ok := ft.Lookup(Header{EthType: EthTypeARP}, 1); ok {
		t.Error("ARP packet matched an IPv4 rule")
	}
}

func TestLookupHighestPriority(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(ruleOut(1, MatchAll(), 1))
	ft.Install(ruleOut(10, MatchAll().With(FieldEthType, uint64(EthTypeIPv4)), 2))
	ft.Install(ruleOut(5, MatchAll().With(FieldIPProto, uint64(IPProtoTCP)), 3))
	idx, ok := ft.Lookup(hdrAB(), 1)
	if !ok || ft.Rules()[idx].Priority != 10 {
		t.Fatalf("expected priority-10 rule, got %v", ft.Rules()[idx])
	}
}

func TestInstallReplacesSameMatchAndPriority(t *testing.T) {
	ft := NewFlowTable()
	m := MatchAll().With(FieldEthType, uint64(EthTypeIPv4))
	ft.Install(ruleOut(5, m, 1))
	ft.Install(ruleOut(5, m, 2)) // replaces
	if ft.Len() != 1 {
		t.Fatalf("table has %d rules, want 1", ft.Len())
	}
	if ft.Rules()[0].Actions[0].Port != 2 {
		t.Error("replacement kept the old actions")
	}
	// A different priority coexists.
	ft.Install(ruleOut(6, m, 3))
	if ft.Len() != 2 {
		t.Errorf("table has %d rules, want 2", ft.Len())
	}
}

func TestDeleteLooseAndStrict(t *testing.T) {
	ft := NewFlowTable()
	ipv4 := MatchAll().With(FieldEthType, uint64(EthTypeIPv4))
	tcp := ipv4.With(FieldIPProto, uint64(IPProtoTCP))
	arp := MatchAll().With(FieldEthType, uint64(EthTypeARP))
	ft.Install(ruleOut(5, ipv4, 1))
	ft.Install(ruleOut(5, tcp, 2))
	ft.Install(ruleOut(5, arp, 3))

	if n := ft.DeleteStrict(tcp, 7); n != 0 {
		t.Errorf("strict delete with wrong priority removed %d", n)
	}
	if n := ft.DeleteStrict(tcp, 5); n != 1 {
		t.Errorf("strict delete removed %d, want 1", n)
	}
	ft.Install(ruleOut(5, tcp, 2))
	// Loose delete by the IPv4 pattern removes both IPv4-ish rules but
	// spares ARP.
	if n := ft.Delete(ipv4); n != 2 {
		t.Errorf("loose delete removed %d, want 2", n)
	}
	if ft.Len() != 1 || !ft.Rules()[0].Match.Equal(arp) {
		t.Errorf("unexpected survivors: %v", ft)
	}
}

func TestCountersAndHit(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(ruleOut(5, MatchAll(), 1))
	idx, _ := ft.Lookup(hdrAB(), 1)
	ft.Hit(idx)
	ft.Hit(idx)
	if ft.Rules()[0].PacketCount != 2 {
		t.Errorf("packet count = %d", ft.Rules()[0].PacketCount)
	}
	if ft.Rules()[0].ByteCount == 0 {
		t.Error("byte count not advanced")
	}
}

func TestTickExpiry(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(Rule{Priority: 1, Match: MatchAll(), Actions: []Action{Output(1)}, HardTimeout: 2})
	ft.Install(Rule{Priority: 2, Match: MatchAll(), Actions: []Action{Output(2)}, IdleTimeout: 1})
	ft.Install(Rule{Priority: 3, Match: MatchAll(), Actions: []Action{Output(3)}}) // permanent

	expired := ft.Tick()
	if len(expired) != 1 || expired[0].Priority != 2 {
		t.Fatalf("first tick expired %v", expired)
	}
	expired = ft.Tick()
	if len(expired) != 1 || expired[0].Priority != 1 {
		t.Fatalf("second tick expired %v", expired)
	}
	if ft.Len() != 1 {
		t.Errorf("%d rules left, want the permanent one", ft.Len())
	}
	if len(ft.Tick()) != 0 {
		t.Error("permanent rule expired")
	}
}

func TestIdleTimeoutResetByHit(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(Rule{Priority: 1, Match: MatchAll(), Actions: []Action{Output(1)}, IdleTimeout: 2})
	ft.Tick()
	idx, _ := ft.Lookup(hdrAB(), 1)
	ft.Hit(idx) // resets idle age
	if len(ft.Tick()) != 0 {
		t.Error("rule idle-expired despite traffic")
	}
	ft.Tick()
	if ft.Len() != 0 {
		t.Error("rule did not idle-expire after quiet period")
	}
}

// TestCanonicalKeyOrderIndependence is the core Table 1 property: any
// permutation of installs yields the same canonical key, while the
// insertion-order key differs for different arrival orders.
func TestCanonicalKeyOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rules := []Rule{
		ruleOut(5, MatchAll().With(FieldEthSrc, 2).With(FieldEthDst, 4), 1),
		ruleOut(5, MatchAll().With(FieldEthSrc, 4).With(FieldEthDst, 2), 2),
		ruleOut(7, MatchAll().With(FieldEthType, uint64(EthTypeARP)), 3),
		ruleOut(3, MatchAll(), 4),
	}
	var canon string
	insertion := make(map[string]bool)
	for trial := 0; trial < 50; trial++ {
		perm := r.Perm(len(rules))
		ft := NewFlowTable()
		for _, i := range perm {
			ft.Install(rules[i])
		}
		ck := ft.RenderCanonicalKey(false)
		if trial == 0 {
			canon = ck
		} else if ck != canon {
			t.Fatalf("canonical key differs across permutations:\n%s\nvs\n%s", canon, ck)
		}
		insertion[ft.RenderInsertionOrderKey(false)] = true
	}
	if len(insertion) < 2 {
		t.Error("insertion-order key did not distinguish any permutations")
	}
}

// TestLookupOrderIndependence: the matched rule is the same whatever
// order rules arrived in — the property that makes canonical hashing
// semantically safe.
func TestLookupOrderIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		var rules []Rule
		n := 2 + r.Intn(5)
		for i := 0; i < n; i++ {
			rules = append(rules, ruleOut(r.Intn(3), randomMatch(r), PortID(r.Intn(4)+1)))
		}
		h, port := randomHeader(r)

		ft1 := NewFlowTable()
		for _, rl := range rules {
			ft1.Install(rl)
		}
		perm := r.Perm(n)
		ft2 := NewFlowTable()
		for _, i := range perm {
			ft2.Install(rules[i])
		}

		idx1, ok1 := ft1.Lookup(h, port)
		idx2, ok2 := ft2.Lookup(h, port)
		if ok1 != ok2 {
			t.Fatalf("lookup presence differs across install orders")
		}
		if ok1 && ft1.Rules()[idx1].Key() != ft2.Rules()[idx2].Key() {
			t.Fatalf("lookup result differs:\n%s\nvs\n%s",
				ft1.Rules()[idx1], ft2.Rules()[idx2])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(ruleOut(5, MatchAll(), 1))
	c := ft.Fork()
	c.Install(ruleOut(9, MatchAll().With(FieldEthType, 1), 2))
	idx, _ := c.Lookup(hdrAB(), 1)
	c.Hit(idx)
	if ft.Len() != 1 {
		t.Error("fork mutation leaked into original (rules)")
	}
	if ft.Rules()[0].PacketCount != 0 {
		t.Error("fork mutation leaked into original (counters)")
	}
}

func TestCanonicalKeyCounters(t *testing.T) {
	ft := NewFlowTable()
	ft.Install(ruleOut(5, MatchAll(), 1))
	before := ft.RenderCanonicalKey(true)
	noCounters := ft.RenderCanonicalKey(false)
	idx, _ := ft.Lookup(hdrAB(), 1)
	ft.Hit(idx)
	if ft.RenderCanonicalKey(true) == before {
		t.Error("counter-inclusive key ignores counters")
	}
	if ft.RenderCanonicalKey(false) != noCounters {
		t.Error("counter-free key changed with counters")
	}
}
