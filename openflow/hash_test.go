package openflow

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nice-go/nice/internal/canon"
)

// This file holds each structural hash of hash.go to the string key it
// replaces on the fingerprint path: two values hash equal exactly when
// their Key() strings are equal. The generators lean on byteFeed
// (keys_fuzz_test.go); the second value of every pair is a mutation of
// the first, so near-misses — and the cases where Key deliberately
// ignores or truncates a field — come up on the seed corpus already.
// Run with `go test -fuzz FuzzHeaderHash ./openflow` (etc.).

// sameIff fails unless hash equality coincides with key equality.
func sameIff(t *testing.T, what, k1, k2 string, h1, h2 uint64) {
	t.Helper()
	if (k1 == k2) != (h1 == h2) {
		t.Fatalf("%s: keys equal=%v but hashes equal=%v\n  %s -> %#x\n  %s -> %#x",
			what, k1 == k2, h1 == h2, k1, h1, k2, h2)
	}
}

// headerMutations is the number of cases mutateHeader distinguishes.
const headerMutations = 15

// mutateHeader changes field number which of h by d (not at all when d
// is 0, or which is out of range).
func mutateHeader(h Header, which int, d uint64) Header {
	switch which {
	case 0:
		h.EthSrc ^= EthAddr(d << 40)
	case 1:
		h.EthDst ^= EthAddr(d)
	case 2:
		h.EthType ^= uint16(d)
	case 3:
		h.VLAN ^= uint16(d << 8)
	case 4:
		h.VLANPCP ^= uint8(d)
	case 5:
		h.IPSrc ^= IPAddr(d << 24)
	case 6:
		h.IPDst ^= IPAddr(d)
	case 7:
		h.IPProto ^= uint8(d)
	case 8:
		h.IPTOS ^= uint8(d)
	case 9:
		h.TPSrc ^= uint16(d)
	case 10:
		h.TPDst ^= uint16(d << 8)
	case 11:
		h.TCPFlags ^= uint8(d)
	case 12:
		h.TCPSeq ^= uint32(d << 16)
	case 13:
		h.ArpOp ^= uint8(d)
	case 14:
		h.Payload += string(rune('a' + d%3))
	}
	return h
}

func headerHash(h Header) uint64 { return h.Hash(canon.NewMix(0)).Sum() }

func FuzzHeaderHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff deadbeef payload bytes, long enough for every field"))
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		h1 := headerFrom(feed)
		for which := 0; which < headerMutations; which++ {
			h2 := mutateHeader(h1, which, uint64(feed.next()%4))
			sameIff(t, "header", h1.Key(), h2.Key(), headerHash(h1), headerHash(h2))
			h1 = h2
		}
		h3 := headerFrom(feed)
		sameIff(t, "header", h1.Key(), h3.Key(), headerHash(h1), headerHash(h3))
	})
}

// wideMatchFrom is matchFrom plus what With allows but Key truncates:
// IP values wider than 32 bits and Ethernet addresses wider than 48.
func wideMatchFrom(f *byteFeed) Match {
	m := matchFrom(f)
	switch f.next() % 4 {
	case 0:
		m = m.With(FieldIPSrc, f.u64(5))
	case 1:
		m = m.With(FieldEthDst, f.u64(7))
	}
	return m
}

// mutateMatch constrains, re-constrains or widens field fld of m, as
// how (mod 4) says.
func mutateMatch(f *byteFeed, m Match, fld Field, how byte) Match {
	switch how % 4 {
	case 0:
		return m // unchanged: the equal-key case
	case 1:
		// The same value with bits Key drops: must not move the hash.
		if v, ok := m.Value(fld); ok && (fld == FieldEthSrc || fld == FieldEthDst) {
			return m.With(fld, v|1<<60)
		}
		return m
	case 2:
		if fld == FieldIPSrc {
			return m.WithIPSrcPrefix(IPAddr(uint32(f.u64(4))), 1+int(f.next()%32))
		}
		return m.With(fld, f.u64(2))
	default:
		return m.With(fld, uint64(f.next()))
	}
}

func matchHash(m Match) uint64 { return m.hash(canon.NewMix(0)).Sum() }

func FuzzMatchHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0x0f, 0xf0, 200, 100, 50, 25, 12, 6, 3, 1, 0, 1, 2, 1, 1, 3, 7, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		m1 := wideMatchFrom(feed)
		for fld := Field(0); int(fld) < numMatchable; fld++ {
			for how := byte(1); how < 4; how++ {
				m2 := mutateMatch(feed, m1, fld, how+feed.next()%2)
				sameIff(t, "match", m1.Key(), m2.Key(), matchHash(m1), matchHash(m2))
				m1 = m2
			}
		}
		m3 := wideMatchFrom(feed)
		sameIff(t, "match", m1.Key(), m3.Key(), matchHash(m1), matchHash(m3))
	})
}

// ruleMutations is the number of cases mutateRule distinguishes.
const ruleMutations = 10

// mutateRule changes aspect number which of r: a keyed field, a counter
// (which only the counter-inclusive key sees), or the spelling of
// "drop". The feed decides by how much, sometimes by nothing.
func mutateRule(f *byteFeed, r Rule, which int) Rule {
	r.Actions = CloneActions(r.Actions)
	switch which {
	case 0:
		r.Priority += int(f.next() % 3)
	case 1:
		r.Match = mutateMatch(f, r.Match, Field(int(f.next())%numMatchable), f.next())
	case 2:
		r.IdleTimeout += int(f.next() % 2)
	case 3:
		r.HardTimeout += int(f.next() % 2)
	case 4:
		r.PacketCount += uint64(f.next() % 2)
	case 5:
		r.Age += int(f.next() % 2)
	case 6:
		r.IdleAge += int(f.next() % 2)
	case 7:
		r.Actions = append(r.Actions, Output(PortID(f.next()%3)))
	case 8:
		// An empty action list and an explicit drop render alike.
		if len(r.Actions) == 0 {
			r.Actions = []Action{Drop()}
		} else {
			r.Actions = nil
		}
	case 9:
		// Retarget the first action in place (the list length holds).
		if len(r.Actions) > 0 {
			a := &r.Actions[0]
			a.Port += PortID(f.next() % 2)
			a.Value += uint64(f.next() % 2)
		}
	}
	return r
}

func FuzzRuleHash(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	f.Add([]byte{0xaa, 0x55, 0xaa, 0x55, 7, 7, 7, 1, 2, 3, 8, 8, 8, 8, 4, 1, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		r1 := rulesFrom(feed)[0]
		var buf1, buf2 [320]byte
		// 8 twice running: something -> nil -> explicit drop.
		for _, which := range []int{0, 1, 2, 3, 4, 5, 6, 9, 8, 8, 7, 9, 1, 0} {
			r2 := mutateRule(feed, r1, which)
			for _, counters := range []bool{false, true} {
				k1 := string(r1.appendStateKey(buf1[:0], counters))
				k2 := string(r2.appendStateKey(buf2[:0], counters))
				sameIff(t, "rule", k1, k2, r1.digest(counters), r2.digest(counters))
			}
			r1 = r2
		}
	})
}

// msgFrom builds a message of any type with every field populated, so
// the fields a type's Key ignores are exercised as ignored.
func msgFrom(f *byteFeed) Msg {
	m := Msg{
		Type:      MsgType(f.next() % 11), // one past the last known type
		Switch:    SwitchID(f.next() % 3),
		Cmd:       FlowModCmd(f.next() % 3),
		Rule:      rulesFrom(f)[0],
		Buffer:    BufferID(f.next()%3) - 1,
		Packet:    Packet{Header: headerFrom(f), ID: PacketID(f.next())},
		InPort:    PortID(f.next() % 3),
		Reason:    PacketInReason(f.next() % 2),
		StatsPort: PortID(f.next() % 2),
		PortUp:    f.next()%2 == 0,
		Xid:       int(f.next() % 3),
		Seq:       int(f.next()),
	}
	for n := f.next() % 3; n > 0; n-- {
		m.Actions = append(m.Actions, Output(PortID(f.next()%3)))
		m.Stats = append(m.Stats, PortStats{Port: PortID(n), TxBytes: uint64(f.next() % 2)})
	}
	return m
}

// msgMutations is the number of cases mutateMsg distinguishes.
const msgMutations = 14

// mutateMsg changes field number which of m — rendered by some types'
// keys, ignored by others'.
func mutateMsg(f *byteFeed, m Msg, which int) Msg {
	// Cases 7 and 10 write the slices; copy them so the caller's m
	// keeps its own.
	m.Actions = CloneActions(m.Actions)
	m.Stats = slices.Clone(m.Stats)
	switch which {
	case 0:
		m.Switch++
	case 1:
		m.Cmd = (m.Cmd + 1) % 3
	case 2:
		m.Rule = mutateRule(f, m.Rule, int(f.next())%ruleMutations)
	case 3:
		m.Buffer++
	case 4:
		m.Packet.Header = mutateHeader(m.Packet.Header, int(f.next())%headerMutations, uint64(f.next()))
	case 5:
		m.Packet.ID++ // never part of a key
	case 6:
		m.InPort++
	case 7:
		m.Actions = append(m.Actions, Flood())
	case 8:
		m.Reason ^= 1
	case 9:
		m.StatsPort++
	case 10:
		if n := len(m.Stats); n > 0 && f.next()%2 == 0 {
			m.Stats[n-1].RxBytes++
		} else {
			m.Stats = append(m.Stats, PortStats{Port: 9, RxBytes: uint64(f.next())})
		}
	case 11:
		m.PortUp = !m.PortUp
	case 12:
		m.Xid++
	case 13:
		m.Seq++ // never part of a key
	}
	return m
}

func FuzzMsgHash(f *testing.F) {
	f.Add([]byte{})
	for typ := byte(0); typ < 11; typ++ {
		f.Add([]byte{typ, 1, 0, 2, 9, 4, 7, 1, 3, 3, 8, 2, 6, 5, 12, 10, 11, 13, 0, 1, 2, 3, 4, 5, 6, 7})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		feed := &byteFeed{data: data}
		m1 := msgFrom(feed)
		for which := 0; which < 2*msgMutations; which++ {
			m2 := mutateMsg(feed, m1, which%msgMutations)
			sameIff(t, "msg", m1.Key(), m2.Key(), m1.FreshKeyHash64(), m2.FreshKeyHash64())
			if memo := m2.MemoKeyHash(); memo.KeyHash64() != m2.FreshKeyHash64() || memo.Key() != m2.Key() {
				t.Fatalf("memoized hash or key diverges from the fresh one for %s", m2.Key())
			}
			m1 = m2
		}
	})
}

// tableOp applies one random mutation to ft.
func tableOp(r *rand.Rand, ft *FlowTable, rules []Rule) {
	switch r.Intn(6) {
	case 0, 1:
		ft.Install(rules[r.Intn(len(rules))])
	case 2:
		ft.Delete(rules[r.Intn(len(rules))].Match)
	case 3:
		ru := rules[r.Intn(len(rules))]
		ft.DeleteStrict(ru.Match, ru.Priority)
	case 4:
		ft.Tick()
	case 5:
		if ft.Len() > 0 {
			ft.Hit(r.Intn(ft.Len()))
		}
	}
}

// TestFlowTableDigest is the flow table's structural-hash contract:
// any permutation of the same installs gives one canonical digest and
// (with overwhelming likelihood) distinct insertion-order digests;
// install-then-delete returns to the prior digest; and after any
// sequence of Install/Delete/DeleteStrict/Tick/Hit — on a table, its
// clone and its copy-on-write fork — the maintained digest equals the
// from-scratch one in all four modes, and agrees with the rendered keys
// on which tables are equal.
func TestFlowTableDigest(t *testing.T) {
	rules := []Rule{
		ruleOut(5, MatchAll().With(FieldEthSrc, 2).With(FieldEthDst, 4), 1),
		ruleOut(5, MatchAll().With(FieldEthSrc, 4).With(FieldEthDst, 2), 2),
		ruleOut(7, MatchAll().With(FieldEthType, uint64(EthTypeARP)), 3),
		ruleOut(3, MatchAll(), 4),
		{Priority: 4, Match: MatchAll().WithIPSrcPrefix(MakeIPAddr(10, 0, 0, 0), 8), IdleTimeout: 2},
		{Priority: 4, Match: MatchAll().With(FieldTPDst, 80), Actions: []Action{ToController()}, HardTimeout: 3},
	}
	r := rand.New(rand.NewSource(11))

	canonical := make(map[uint64]bool)
	insertion := make(map[uint64]bool)
	for trial := 0; trial < 50; trial++ {
		ft := NewFlowTable()
		for _, i := range r.Perm(len(rules)) {
			ft.Install(rules[i])
		}
		canonical[ft.Digest(true, false)] = true
		insertion[ft.Digest(false, false)] = true
	}
	if len(canonical) != 1 {
		t.Errorf("%d canonical digests across permutations of one rule set, want 1", len(canonical))
	}
	if len(insertion) < 40 {
		t.Errorf("only %d insertion-order digests across 50 random permutations", len(insertion))
	}

	ft := NewFlowTable()
	ft.Install(rules[0])
	ft.Install(rules[3])
	before := ft.Digest(true, false)
	ft.Install(rules[2])
	if ft.Digest(true, false) == before {
		t.Error("install did not move the digest")
	}
	ft.DeleteStrict(rules[2].Match, rules[2].Priority)
	if ft.Digest(true, false) != before {
		t.Error("install-then-delete did not return to the prior digest")
	}

	type mode struct{ canonical, counters bool }
	modes := []mode{{true, false}, {true, true}, {false, false}, {false, true}}
	render := func(ft *FlowTable, m mode) string {
		if m.canonical {
			return ft.RenderCanonicalKey(m.counters)
		}
		return ft.RenderInsertionOrderKey(m.counters)
	}
	byKey := make(map[mode]map[string]uint64)
	for _, m := range modes {
		byKey[m] = make(map[string]uint64)
	}
	check := func(what string, ft *FlowTable) {
		t.Helper()
		for _, m := range modes {
			d := ft.Digest(m.canonical, m.counters)
			if fresh := ft.FreshDigest(m.canonical, m.counters); d != fresh {
				t.Fatalf("%s: maintained digest %#x != from-scratch %#x (mode %+v)", what, d, fresh, m)
			}
			key := render(ft, m)
			if prev, seen := byKey[m][key]; seen && prev != d {
				t.Fatalf("%s: equal keys, different digests (mode %+v): %s", what, m, key)
			}
			byKey[m][key] = d
		}
	}
	for walk := 0; walk < 40; walk++ {
		ft := NewFlowTable()
		for step := 0; step < 30; step++ {
			tableOp(r, ft, rules)
			check("table", ft)
			if step%7 == 3 {
				a, b := ft.Fork(), ft.Fork()
				tableOp(r, a, rules)
				tableOp(r, b, rules)
				check("first fork", a)
				check("second fork", b)
				check("forked-from table", ft)
			}
		}
	}
	for _, m := range modes {
		digests := make(map[uint64]bool)
		for _, d := range byKey[m] {
			digests[d] = true
		}
		if len(digests) != len(byKey[m]) {
			t.Errorf("mode %+v: %d distinct keys but %d distinct digests", m, len(byKey[m]), len(digests))
		}
	}
}

// TestSwitchKeyHashTracksStateKey walks a switch through every kind of
// mutation and checks the cached hash against the from-scratch one, and
// hash equality against StateKey equality, after each.
func TestSwitchKeyHashTracksStateKey(t *testing.T) {
	sw, alloc := newTestSwitch()
	seen := map[bool]map[string]uint64{true: {}, false: {}}
	step := func(what string) {
		t.Helper()
		for canonical, keys := range seen {
			h := sw.KeyHash64(canonical, false)
			if fresh := sw.FreshKeyHash64(canonical, false); h != fresh {
				t.Fatalf("after %s: cached hash %#x != from-scratch %#x", what, h, fresh)
			}
			key := sw.StateKey(canonical, false)
			if prev, ok := keys[key]; ok && prev != h {
				t.Fatalf("after %s: equal state keys, different hashes", what)
			}
			keys[key] = h
		}
	}
	step("construction")
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	step("enqueue")
	sw.Enqueue(2, pkt(alloc, hdrAB()))
	step("second enqueue")
	sw.ProcessPackets(alloc) // both miss: buffered, packet_in
	step("process (miss)")
	applyOF(sw, Msg{Type: MsgFlowMod, Cmd: FlowAdd, Rule: ruleOut(5, MatchAll(), 2)}, alloc)
	step("flow_mod add")
	applyOF(sw, Msg{Type: MsgPacketOut, Buffer: 0, Actions: []Action{Output(2)}}, alloc)
	step("packet_out")
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.ProcessPackets(alloc)
	step("process (hit)")
	sw.SetPortUp(3, false)
	step("port down")
	applyOF(sw, Msg{Type: MsgFlowMod, Cmd: FlowDelete, Rule: Rule{Match: MatchAll()}}, alloc)
	step("flow_mod delete")
	sw.TakeAllBuffered()
	step("buffer flush")
	for _, keys := range seen {
		hashes := make(map[uint64]bool)
		for _, h := range keys {
			hashes[h] = true
		}
		if len(hashes) != len(keys) {
			t.Errorf("%d distinct state keys but %d distinct hashes", len(keys), len(hashes))
		}
	}
}
