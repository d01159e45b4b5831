package sym

import (
	"fmt"
	"testing"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/openflow"
)

// TestExploreBranchCoverage: a handler with a two-way branch on one
// field yields exactly two equivalence classes, one per side.
func TestExploreBranchCoverage(t *testing.T) {
	e := &Explorer{Domains: map[string][]uint64{"x": {1, 2, 3}}}
	var classes []uint64
	results := e.Explore(Assignment{"x": 1}, func(tr *Trace, asn Assignment) {
		x := Symbolic("x", 8, asn["x"])
		if tr.If(x.EqConst(2)) {
			// path A
		}
	})
	for _, r := range results {
		classes = append(classes, r.Assignment["x"])
	}
	if len(results) != 2 {
		t.Fatalf("found %d classes, want 2 (got %v)", len(results), classes)
	}
	seenEq, seenNe := false, false
	for _, v := range classes {
		if v == 2 {
			seenEq = true
		} else {
			seenNe = true
		}
	}
	if !seenEq || !seenNe {
		t.Errorf("classes %v do not cover both sides", classes)
	}
}

// TestExploreNestedBranches covers a three-path handler.
func TestExploreNestedBranches(t *testing.T) {
	e := &Explorer{Domains: map[string][]uint64{
		"a": {0, 1},
		"b": {0, 1},
	}}
	results := e.Explore(Assignment{"a": 0, "b": 0}, func(tr *Trace, asn Assignment) {
		a := Symbolic("a", 8, asn["a"])
		b := Symbolic("b", 8, asn["b"])
		if tr.If(a.EqConst(1)) {
			if tr.If(b.EqConst(1)) {
				// deep path
			}
		}
	})
	// Paths: a!=1; a==1,b!=1; a==1,b==1.
	if len(results) != 3 {
		t.Fatalf("found %d paths, want 3", len(results))
	}
}

// TestExploreUnreachablePath: contradictory guards cannot multiply
// classes.
func TestExploreUnreachablePath(t *testing.T) {
	e := &Explorer{Domains: map[string][]uint64{"x": {0, 1, 2}}}
	results := e.Explore(Assignment{"x": 0}, func(tr *Trace, asn Assignment) {
		x := Symbolic("x", 8, asn["x"])
		if tr.If(x.EqConst(1)) {
			if tr.If(x.NeConst(1)) {
				t.Error("executed a contradictory path")
			}
		}
	})
	if len(results) != 2 {
		t.Fatalf("found %d paths, want 2", len(results))
	}
}

// TestExploreMaxPathsBudget: the engine respects its path budget.
func TestExploreMaxPathsBudget(t *testing.T) {
	e := &Explorer{
		Domains:  map[string][]uint64{"x": {0, 1, 2, 3, 4, 5, 6, 7}},
		MaxPaths: 3,
	}
	results := e.Explore(Assignment{"x": 0}, func(tr *Trace, asn Assignment) {
		x := Symbolic("x", 8, asn["x"])
		// A switch-shaped handler with 8 distinct paths.
		for v := uint64(0); v < 8; v++ {
			if tr.If(x.EqConst(v)) {
				return
			}
		}
	})
	if len(results) > 3 {
		t.Errorf("explored %d paths despite MaxPaths=3", len(results))
	}
}

// TestExploreMinedThreshold: with mining on, the engine crosses a
// comparison threshold that no base candidate reaches.
func TestExploreMinedThreshold(t *testing.T) {
	e := &Explorer{
		Domains:     map[string][]uint64{"load": {0}},
		MineDomains: true,
	}
	highSeen := false
	results := e.Explore(Assignment{"load": 0}, func(tr *Trace, asn Assignment) {
		load := Symbolic("load", 64, asn["load"])
		if tr.If(load.Ge(Concrete(1000))) {
			highSeen = true
		}
	})
	if len(results) != 2 {
		t.Fatalf("found %d classes, want 2", len(results))
	}
	if !highSeen {
		t.Error("high-load path never executed")
	}
}

// TestExploreMiningOffStaysInDomain: with mining off, representatives
// come only from the supplied domain.
func TestExploreMiningOffStaysInDomain(t *testing.T) {
	dom := map[uint64]bool{10: true, 20: true}
	e := &Explorer{Domains: map[string][]uint64{"x": {10, 20}}}
	results := e.Explore(Assignment{"x": 10}, func(tr *Trace, asn Assignment) {
		x := Symbolic("x", 8, asn["x"])
		tr.If(x.EqConst(20))
	})
	for _, r := range results {
		if !dom[r.Assignment["x"]] {
			t.Errorf("representative %d escaped the domain", r.Assignment["x"])
		}
	}
}

// TestExploreBaseConstraints: domain-knowledge constraints restrict
// every discovered class.
func TestExploreBaseConstraints(t *testing.T) {
	e := &Explorer{
		Domains:         map[string][]uint64{"x": {0, 1, 2, 3}},
		BaseConstraints: []Expr{Bin{Op: OpNe, A: Var{Name: "x"}, B: Const(3)}},
	}
	results := e.Explore(Assignment{"x": 0}, func(tr *Trace, asn Assignment) {
		x := Symbolic("x", 8, asn["x"])
		tr.If(x.EqConst(3)) // the x==3 class must be unreachable
		tr.If(x.EqConst(1))
	})
	for _, r := range results {
		if r.Assignment["x"] == 3 {
			t.Error("base constraint violated by a representative")
		}
	}
}

// TestExploreDeterminism: two identical explorations yield identical
// results in identical order — required for replayable searches. The
// results are compared by path digest, and two different branch lists
// must digest apart, so a zero or constant digest cannot pass.
func TestExploreDeterminism(t *testing.T) {
	run := func() []canon.Digest {
		e := &Explorer{Domains: map[string][]uint64{"a": {0, 1, 2}, "b": {0, 1}}}
		results := e.Explore(Assignment{"a": 0, "b": 0}, func(tr *Trace, asn Assignment) {
			a := Symbolic("a", 8, asn["a"])
			b := Symbolic("b", 8, asn["b"])
			if tr.If(a.EqConst(1)) && tr.If(b.EqConst(1)) {
				return
			}
			tr.If(a.EqConst(2))
		})
		var keys []canon.Digest
		for _, r := range results {
			keys = append(keys, r.Path)
		}
		return keys
	}
	a, b := run(), run()
	if len(a) < 3 || len(a) != len(b) {
		t.Fatalf("result counts: %d vs %d, want at least 3 paths", len(a), len(b))
	}
	seen := make(map[canon.Digest]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %x vs %x", i, a[i], b[i])
		}
		if seen[a[i]] {
			t.Fatalf("results share path digest %x", a[i])
		}
		seen[a[i]] = true
	}

	x := Symbolic("a", 8, 1)
	taken, notTaken := NewTrace(), NewTrace()
	taken.If(x.EqConst(1))
	notTaken.If(x.EqConst(1).Not())
	if taken.path() == notTaken.path() {
		t.Fatal("different branch lists share a path digest")
	}
}

func TestSymbolicPacketFieldsAndConcretize(t *testing.T) {
	hdr := openflow.Header{
		EthSrc:  openflow.MakeEthAddr(0, 0, 0, 0, 0, 2),
		EthDst:  openflow.MakeEthAddr(0, 0, 0, 0, 0, 4),
		EthType: openflow.EthTypeIPv4,
	}
	p := SymbolicPacket(hdr, 3)
	if p.InPort() != 3 {
		t.Errorf("in-port = %v", p.InPort())
	}
	if p.Field(openflow.FieldInPort).IsSymbolic() {
		t.Error("in-port must stay concrete (location context)")
	}
	if !p.EthSrc().IsSymbolic() {
		t.Error("packet fields must be symbolic")
	}
	if p.Header() != hdr {
		t.Errorf("header round trip: %v", p.Header())
	}
	p.ApplyAssignment(Assignment{"dl_dst": uint64(openflow.BroadcastEth)})
	if p.Header().EthDst != openflow.BroadcastEth {
		t.Error("assignment not applied")
	}
}

func TestConcretePacketIsFullyConcrete(t *testing.T) {
	p := ConcretePacket(new(Packet), openflow.Header{EthType: openflow.EthTypeARP}, 1)
	for f := openflow.Field(0); int(f) < openflow.NumFields; f++ {
		if p.Field(f).IsSymbolic() {
			t.Fatalf("field %v is symbolic on a concrete packet", f)
		}
	}
}

func TestSymbolicStats(t *testing.T) {
	ports := []openflow.PortID{1, 2}
	s := SymbolicStats(ports, []uint64{100, 200})
	if s.TxBytes(2).C != 200 || !s.TxBytes(2).IsSymbolic() {
		t.Errorf("TxBytes(2) = %v", s.TxBytes(2))
	}
	if s.TxBytes(9).IsSymbolic() || s.TxBytes(9).C != 0 {
		t.Error("absent port should be concrete zero")
	}
	s.ApplyAssignment(Assignment{StatVarName(1): 999})
	conc := s.Concrete()
	if conc[0].TxBytes != 999 || conc[1].TxBytes != 200 {
		t.Errorf("concrete stats: %v", conc)
	}
}

func TestLookupEthRecordsConstraints(t *testing.T) {
	m := map[openflow.EthAddr]openflow.PortID{
		openflow.MakeEthAddr(0, 0, 0, 0, 0, 2): 1,
		openflow.MakeEthAddr(0, 0, 0, 0, 0, 4): 2,
	}
	tr := NewTrace()
	key := Symbolic("dl_dst", 48, uint64(openflow.MakeEthAddr(0, 0, 0, 0, 0, 4)))
	port, ok := LookupEth(tr, m, key)
	if !ok || port != 2 {
		t.Fatalf("lookup = %v, %t", port, ok)
	}
	// Keys visit in sorted order: one miss (addr 2) + one hit (addr 4).
	if len(tr.Branches()) != 2 {
		t.Errorf("recorded %d branches, want 2", len(tr.Branches()))
	}
	// Miss case records all comparisons.
	tr2 := NewTrace()
	if _, ok := LookupEth(tr2, m, Symbolic("dl_dst", 48, 999)); ok {
		t.Error("hit on absent key")
	}
	if len(tr2.Branches()) != 2 {
		t.Errorf("miss recorded %d branches, want 2", len(tr2.Branches()))
	}
}

func TestLookupFlowMatchesWholeTuple(t *testing.T) {
	flow := openflow.Flow{
		EthSrc: 2, EthDst: 4, IPSrc: 10, IPDst: 20, TPSrc: 30, TPDst: 40,
	}
	m := map[openflow.Flow]int{flow: 7}
	hdr := openflow.Header{EthSrc: 2, EthDst: 4, IPSrc: 10, IPDst: 20, TPSrc: 30, TPDst: 40}
	tr := NewTrace()
	got, ok := LookupFlow(tr, m, SymbolicPacket(hdr, 1))
	if !ok || got != 7 {
		t.Fatalf("flow lookup = %d, %t", got, ok)
	}
	// A one-field difference misses.
	hdr.TPSrc = 31
	if _, ok := LookupFlow(NewTrace(), m, SymbolicPacket(hdr, 1)); ok {
		t.Error("flow lookup hit with different source port")
	}
}

// TestLookupFlowTieOrder: two keys that differ only in EthType or
// IPProto render alike under Flow.String and both match a packet, so
// the lookup must break the tie by Flow.Less and return the smaller
// key's value on every call, whatever order the map was built and is
// iterated in.
func TestLookupFlowTieOrder(t *testing.T) {
	lo := openflow.Flow{EthSrc: 2, EthDst: 4, EthType: openflow.EthTypeIPv4,
		IPSrc: 10, IPDst: 20, IPProto: openflow.IPProtoTCP, TPSrc: 30, TPDst: 40}
	protoHi, typeHi := lo, lo
	protoHi.IPProto = openflow.IPProtoUDP
	typeHi.EthType = openflow.EthTypeARP
	hdr := openflow.Header{EthSrc: 2, EthDst: 4, IPSrc: 10, IPDst: 20, TPSrc: 30, TPDst: 40}
	for _, hi := range []openflow.Flow{protoHi, typeHi} {
		if lo.String() != hi.String() || !lo.Less(hi) {
			t.Fatalf("%+v and %+v: not a rendering tie ordered by Less", lo, hi)
		}
		for _, order := range [][]openflow.Flow{{lo, hi}, {hi, lo}} {
			m := make(map[openflow.Flow]string)
			for _, k := range order {
				m[k] = "hi"
				if k == lo {
					m[k] = "lo"
				}
			}
			for i := 0; i < 200; i++ {
				got, ok := LookupFlow(NewTrace(), m, ConcretePacket(new(Packet), hdr, 1))
				if !ok || got != "lo" {
					t.Fatalf("call %d, insertion order %#v: got the %s key's value, want the Less-smaller key's",
						i, order, got)
				}
			}
		}
	}
}

// TestExploreAllocs fences the explorer's allocations per Explore on a
// fixed two-variable handler, with a cold memo (empty at every call)
// and a warm one. Each bound sits just above the count of structural
// keys and reused solver buffers (138 cold, 89 warm on Go 1.24); string
// keys cost 474 and 425, and rendering only the path key again
// already gives 176 and 127, only the problem key 216 and 167.
func TestExploreAllocs(t *testing.T) {
	run := func(tr *Trace, asn Assignment) {
		a := Symbolic("a", 8, asn["a"])
		b := Symbolic("b", 8, asn["b"])
		if tr.If(a.EqConst(1)) && tr.If(b.Lt(a)) {
			return
		}
		tr.If(a.Add(b).EqConst(3))
	}
	e := &Explorer{
		Domains: map[string][]uint64{"a": {0, 1, 2, 3}, "b": {0, 1, 2}},
		Bits:    map[string]int{"a": 8, "b": 8},
	}
	seed := Assignment{"a": 0, "b": 0}
	explore := func(memo Memo) int {
		e.Memo = memo
		return len(e.Explore(seed, run))
	}
	warm := &memoRecorder{m: make(map[canon.Digest]memoEntry)}
	if n := explore(warm); n < 3 {
		t.Fatalf("the handler has %d paths, want at least 3", n)
	}
	for _, c := range []struct {
		name  string
		memo  func() Memo
		bound float64
	}{
		{"cold", func() Memo { return &memoRecorder{m: make(map[canon.Digest]memoEntry)} }, 155},
		{"warm", func() Memo { return warm }, 105},
	} {
		got := testing.AllocsPerRun(50, func() { explore(c.memo()) })
		t.Logf("%s memo: %.0f allocs per Explore", c.name, got)
		if got > c.bound {
			t.Errorf("%s memo: %.0f allocs per Explore, bound %.0f", c.name, got, c.bound)
		}
	}
}

// TestStatVarNameMatchesFmt: the counter names solver models are keyed
// by render as the fmt.Sprintf they replaced.
func TestStatVarNameMatchesFmt(t *testing.T) {
	for _, p := range []openflow.PortID{0, 1, 17, 65535, -2} {
		if got, want := StatVarName(p), fmt.Sprintf("stat_tx_%d", int(p)); got != want {
			t.Errorf("StatVarName(%d) = %q, want %q", int(p), got, want)
		}
	}
}
