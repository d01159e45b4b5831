package core

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// This file holds the reduction's bookkeeping to its budgets: what a
// transition identity must tell apart, how large a stored summary may
// be, and how much a reduced search may allocate.

// identityTuple renders every identity-bearing field of a transition
// losslessly — the oracle transIdentity is held to.
func identityTuple(t Transition) string {
	return fmt.Sprintf("%d|%d|%d|%d|%s|%v|%v|%q", t.Kind, t.Host, t.Sw, t.Port,
		t.Hdr.Key(), t.Stats, t.MoveTo, t.Env)
}

// identityMutations is the number of cases mutateTransition
// distinguishes: one per identity-bearing field.
const identityMutations = 26

// mutateTransition changes field number which of t by d (not at all
// when d is 0).
func mutateTransition(t Transition, which int, d uint64) Transition {
	switch which {
	case 0:
		t.Kind ^= TransitionKind(d)
	case 1:
		t.Host ^= openflow.HostID(d)
	case 2:
		t.Sw ^= openflow.SwitchID(d << 3)
	case 3:
		t.Port ^= openflow.PortID(d)
	case 4:
		t.Hdr.EthSrc ^= openflow.EthAddr(d << 40)
	case 5:
		t.Hdr.EthDst ^= openflow.EthAddr(d)
	case 6:
		t.Hdr.EthType ^= uint16(d)
	case 7:
		t.Hdr.VLAN ^= uint16(d << 8)
	case 8:
		t.Hdr.VLANPCP ^= uint8(d)
	case 9:
		t.Hdr.IPSrc ^= openflow.IPAddr(d << 24)
	case 10:
		t.Hdr.IPDst ^= openflow.IPAddr(d)
	case 11:
		t.Hdr.IPProto ^= uint8(d)
	case 12:
		t.Hdr.IPTOS ^= uint8(d)
	case 13:
		t.Hdr.TPSrc ^= uint16(d)
	case 14:
		t.Hdr.TPDst ^= uint16(d << 8)
	case 15:
		t.Hdr.TCPFlags ^= uint8(d)
	case 16:
		t.Hdr.TCPSeq ^= uint32(d << 16)
	case 17:
		t.Hdr.ArpOp ^= uint8(d)
	case 18:
		t.Hdr.Payload += string(rune('a' + d%3))
	case 19: // Stats grows by one entry; the copy keeps t's own intact
		if d != 0 {
			t.Stats = append(append([]openflow.PortStats(nil), t.Stats...),
				openflow.PortStats{Port: openflow.PortID(d)})
		}
	case 20, 21, 22:
		if len(t.Stats) > 0 {
			t.Stats = append([]openflow.PortStats(nil), t.Stats...)
			last := &t.Stats[len(t.Stats)-1]
			switch which {
			case 20:
				last.Port ^= openflow.PortID(d)
			case 21:
				last.TxBytes ^= d << 33
			default:
				last.RxBytes ^= d
			}
		}
	case 23:
		t.MoveTo.Sw ^= openflow.SwitchID(d)
	case 24:
		t.MoveTo.Port ^= openflow.PortID(d)
	case 25:
		if d != 0 {
			t.Env += string(rune('d' + d))
		}
	}
	return t
}

// FuzzTransitionIdentity: two transitions share an identity exactly when
// they agree on every identity-bearing field. Each input drives several
// sweeps over all fields, so the seed corpus under plain `go test`
// already fails on a field transIdentity drops.
func FuzzTransitionIdentity(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte("\xff\xfe\xfd every field of the transition gets a turn, zero deltas included\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() uint64 {
			pos++
			if len(data) == 0 {
				return uint64(pos)
			}
			return uint64(data[pos%len(data)])
		}
		t1 := Transition{Kind: TransitionKind(next() % 17), Host: openflow.HostID(next()),
			Sw: openflow.SwitchID(next()), Hdr: openflow.Header{EthType: uint16(next()), IPProto: uint8(next())}}
		for sweep := 0; sweep < 3; sweep++ {
			for which := 0; which < identityMutations; which++ {
				t2 := mutateTransition(t1, which, (next()+uint64(sweep))%4)
				k1, k2 := identityTuple(t1), identityTuple(t2)
				h1, h2 := transIdentity(&t1).Sum(), transIdentity(&t2).Sum()
				if (k1 == k2) != (h1 == h2) {
					t.Fatalf("field %d: tuples equal=%v but identities equal=%v\n  %s -> %#x\n  %s -> %#x",
						which, k1 == k2, h1 == h2, k1, h1, k2, h2)
				}
				t1 = t2
			}
		}
	})
}

// TestIdentityStatsLengthDelimits covers the one word of transIdentity a
// field sweep cannot reach: without its length, a stats vector runs into
// the move-target and environment words that follow it.
func TestIdentityStatsLengthDelimits(t *testing.T) {
	env := "\x03\x00\x00\x00\x00\x00\x00\x00" + "\x04\x00\x00\x00\x00\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x00\x00"
	a := Transition{MoveTo: topo.PortKey{Sw: 1, Port: 2}, Env: env}
	b := Transition{Stats: []openflow.PortStats{{Port: 1, TxBytes: 2, RxBytes: uint64(len(env))}},
		MoveTo: topo.PortKey{Sw: 3, Port: 4}}
	if transIdentity(&a).Sum() == transIdentity(&b).Sum() {
		t.Errorf("%s and %s share an identity", identityTuple(a), identityTuple(b))
	}
}

// TestSendIdentityLossless is the regression test for the identity the
// sleep and backtrack sets used to take from Transition.Key, whose
// pretty header rendering never prints the VLAN and prints transport
// ports only for TCP/UDP: two distinct sends of one host shared a key,
// so one could put the other to sleep.
func TestSendIdentityLossless(t *testing.T) {
	sys := NewSystem(dporConfig(1, 0))
	icmp := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, IPProto: openflow.IPProtoICMP, Payload: "ping"}
	vlan, tpsrc := icmp, icmp
	vlan.VLAN = 7
	tpsrc.TPSrc = 99
	enabled := []Transition{
		{Kind: THostSend, Host: 1, Hdr: icmp},
		{Kind: THostSend, Host: 1, Hdr: vlan},
		{Kind: THostSend, Host: 1, Hdr: tpsrc},
	}
	if enabled[0].Key() != enabled[1].Key() || enabled[0].Key() != enabled[2].Key() {
		t.Fatalf("the trace rendering is expected to be lossy here: %q %q %q",
			enabled[0].Key(), enabled[1].Key(), enabled[2].Key())
	}
	var sc SleepScratch
	NewSleepReducer(sys).Prepare(sys, enabled, &sc)
	if sc.Key(0) == sc.Key(1) {
		t.Error("sends differing only in VLAN share a sleep-set identity")
	}
	if sc.Key(0) == sc.Key(2) {
		t.Error("ICMP sends differing only in TPSrc share a sleep-set identity")
	}
	for i := range enabled {
		if got := dporKeyHash(sys, &enabled[i]); got != sc.Key(i) {
			t.Errorf("transition %d: the checker's identity %#x differs from SleepReducer's %#x", i, got, sc.Key(i))
		}
	}
}

// linearOneWayConfig is the benchmark's dpor-linear shape at n switches
// (one host per switch, even hosts pinging their odd neighbour once,
// the repaired pyswitch, symbolic execution off) under a property this
// package can build.
func linearOneWayConfig(n int) *Config {
	tp, _ := topo.LinearHosts(n, 1)
	all := tp.Hosts()
	var hh []*hosts.Host
	for i, self := range all {
		j := i ^ 1
		if j >= len(all) {
			j = i - 1
		}
		seed := openflow.Header{EthSrc: self.MAC, EthDst: all[j].MAC, EthType: openflow.EthTypeIPv4,
			IPSrc: self.IP, IPDst: all[j].IP, IPProto: openflow.IPProtoICMP, Payload: "ping"}
		h := hosts.NewClient(self, 1-i%2, 0, seed)
		h.Repertoire = append(h.Repertoire[:0], seed)
		hh = append(hh, h)
	}
	return &Config{Topo: tp, App: pyswitch.New(pyswitch.Fixed, tp), Hosts: hh,
		Properties: []Property{newCountingProp(0)}, DisableSE: true}
}

// TestDPORStorageBudget pins what the reduction may keep per stored
// state and allocate per explored one.
func TestDPORStorageBudget(t *testing.T) {
	if size := unsafe.Sizeof(sumEntry{}); size > 16 {
		t.Errorf("sumEntry is %d bytes, budget 16", size)
	}
	if size := unsafe.Sizeof(dporNode{}); size > 8 {
		t.Errorf("dporNode is %d bytes, budget 8", size)
	}

	c := NewChecker(linearOneWayConfig(4))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := c.RunContext(t.Context(), EngineOptions{Reduction: ReductionDPOR})
	runtime.ReadMemStats(&after)
	if !r.Complete || r.UniqueStates == 0 {
		t.Fatalf("linear4 search did not complete: %+v", r)
	}
	perState := float64(after.Mallocs-before.Mallocs) / float64(r.UniqueStates)
	t.Logf("%d states, %.2f mallocs per unique state", r.UniqueStates, perState)
	if perState > 44 && !raceEnabled {
		t.Errorf("%.2f mallocs per unique state, budget 44", perState)
	}

	entries := 0
	for h, node := range c.dporExplored {
		sum := c.storedSummary(node).exact
		if cap(sum) != len(sum) {
			t.Fatalf("state %v: stored summary has capacity %d for %d entries", h, cap(sum), len(sum))
		}
		entries += len(sum)
	}
	if entries == 0 {
		t.Error("no stored summary holds an entry; the capacity check is vacuous")
	}
}

// planKind names the openflow plan a footprint of t consults at sys, or
// "" for a transition whose footprint needs none.
func planKind(sys *System, t Transition) string {
	switch t.Kind {
	case TSwitchProcess:
		return "ProcessPlan"
	case TSwitchProcessPort:
		return "ProcessPortPlan"
	case TSwitchOF:
		if msg, ok := sys.ctrl.HeadOut(t.Sw); ok && msg.Type == openflow.MsgPacketOut {
			return "OFPlan"
		}
	}
	return ""
}

// TestFootprintsDoNotAllocate: once the caller's buffers are sized,
// computing a state's footprints allocates nothing. The switch plans
// fill a stack buffer of egress ports, which stays on the stack only as
// long as no plan leaks it.
func TestFootprintsDoNotAllocate(t *testing.T) {
	covered := map[string]int{}
	for _, micro := range []bool{false, true} {
		cfg := linearOneWayConfig(4)
		cfg.MicroSteps = micro
		sim := NewSimulator(cfg)
		sp := newComponentSpace(sim.System())
		for walk := 0; walk < 8; walk++ {
			sim.Reset()
			for i := walk; ; i++ {
				sys, enabled := sim.System(), sim.Enabled()
				if len(enabled) == 0 {
					break
				}
				for _, tr := range enabled {
					covered[planKind(sys, tr)]++
				}
				fps, hostSw := sp.footprintsInto(sys, enabled, nil, nil)
				if n := testing.AllocsPerRun(10, func() {
					fps, hostSw = sp.footprintsInto(sys, enabled, fps, hostSw)
				}); n != 0 {
					t.Fatalf("footprints of %d transitions allocate %.0f times", len(enabled), n)
				}
				sim.Step(i % len(enabled))
			}
		}
	}
	t.Logf("transitions covered per plan: %v", covered)
	for _, kind := range []string{"ProcessPlan", "ProcessPortPlan", "OFPlan"} {
		if covered[kind] == 0 {
			t.Errorf("no walk reached a transition whose footprint runs %s", kind)
		}
	}
}
