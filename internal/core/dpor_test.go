package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// countingProp is a small event-observing property for DPOR tests: it
// counts delivered packets per host (header-identified, so it is packet-
// ID oblivious) and can be armed to fail at a threshold.
type countingProp struct {
	failAt    int
	delivered map[openflow.HostID]int
}

func newCountingProp(failAt int) *countingProp {
	return &countingProp{failAt: failAt, delivered: map[openflow.HostID]int{}}
}

func (p *countingProp) Name() string { return "counting" }
func (p *countingProp) Clone() Property {
	c := newCountingProp(p.failAt)
	for k, v := range p.delivered {
		c.delivered[k] = v
	}
	return c
}
func (p *countingProp) OnEvents(sys *System, events []Event) error {
	for _, e := range events {
		if e.Kind == EvDelivered {
			p.delivered[e.Host]++
			if p.failAt > 0 && p.delivered[e.Host] >= p.failAt {
				return fmt.Errorf("host %d received %d packets", e.Host, p.delivered[e.Host])
			}
		}
	}
	return nil
}
func (p *countingProp) AtQuiescence(sys *System) error { return nil }
func (p *countingProp) StateKey() string {
	ids := make([]openflow.HostID, 0, len(p.delivered))
	for id := range p.delivered {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s := ""
	for _, id := range ids {
		s += fmt.Sprintf("%d=%d;", id, p.delivered[id])
	}
	return s
}
func (p *countingProp) EventMask() uint64       { return MaskOf(EvDelivered) }
func (p *countingProp) PacketIDOblivious() bool { return true }

// idTrackerProp deliberately lacks the PacketIDOblivious marker so the
// component space treats the packet-ID allocator as shared state.
type idTrackerProp struct{ lastID int }

func (p *idTrackerProp) Name() string { return "idtracker" }
func (p *idTrackerProp) Clone() Property {
	c := *p
	return &c
}
func (p *idTrackerProp) OnEvents(sys *System, events []Event) error {
	for _, e := range events {
		if e.Kind == EvHostSend {
			p.lastID = int(e.Pkt.ID)
		}
	}
	return nil
}
func (p *idTrackerProp) AtQuiescence(sys *System) error { return nil }
func (p *idTrackerProp) StateKey() string               { return fmt.Sprintf("%d", p.lastID) }
func (p *idTrackerProp) EventMask() uint64              { return MaskOf(EvHostSend) }

// dporConfig is a two-switch, two-host workload with enough concurrency
// (independent sends, per-switch processing, controller dispatches) for
// the reduction to bite.
func dporConfig(sends int, failAt int) *Config {
	t2, aID, bID := topo.Linear(2)
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, Payload: "ping"}
	pong := openflow.Header{EthSrc: topo.MACHostB, EthDst: topo.MACHostA,
		EthType: openflow.EthTypeIPv4, Payload: "pong"}
	a := hosts.NewClient(t2.Host(aID), sends, 0, ping)
	a.Repertoire = []openflow.Header{ping}
	b := hosts.NewClient(t2.Host(bID), sends, 0, pong)
	b.Repertoire = []openflow.Header{pong}
	return &Config{
		Topo: t2, App: &hubApp{},
		Hosts:      []*hosts.Host{a, b},
		DisableSE:  true,
		Properties: []Property{newCountingProp(failAt)},
	}
}

func violationKeys(r *Report) []string {
	keys := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		keys = append(keys, v.Property+"|"+v.Err.Error())
	}
	sort.Strings(keys)
	return keys
}

// TestDPORReplay: every DPOR-found violation trace replays to the same
// violation from a fresh initial state.
func TestDPORReplay(t *testing.T) {
	cfg := dporConfig(1, 1)
	cfg.StopAtFirstViolation = false
	red := RunDPOR(t.Context(), cfg, EngineOptions{})
	if len(red.Violations) == 0 {
		t.Fatal("expected violations")
	}
	for _, v := range red.Violations {
		got := ReplayWithProperties(cfg, NewCaches(), v.Trace)
		if got == nil {
			t.Fatalf("trace did not replay to a violation: %v", v)
		}
		if got.Property != v.Property || got.Err.Error() != v.Err.Error() {
			t.Fatalf("replayed %s|%v, want %s|%v", got.Property, got.Err, v.Property, v.Err)
		}
	}
}

// TestFootprintDependence spot-checks the dependence relation on a
// concrete state: per-switch transitions on non-adjacent components
// commute, transitions sharing a component conflict.
func TestFootprintDependence(t *testing.T) {
	cfg := dporConfig(1, 0)
	sys := NewSystem(cfg)
	sp := newComponentSpace(sys)
	if sp.overflow {
		t.Fatal("tiny model overflowed the component space")
	}

	enabled := sys.Enabled()
	fps, _ := sp.footprintsInto(sys, enabled, nil, nil)
	find := func(kind TransitionKind, host openflow.HostID) int {
		for i, tr := range enabled {
			if tr.Kind == kind && tr.Host == host {
				return i
			}
		}
		t.Fatalf("no %v for host %d in %v", kind, host, enabled)
		return -1
	}
	sendA := find(THostSend, 1)
	sendB := find(THostSend, 2)
	// Hosts 1 and 2 sit on adjacent switches of Linear(2): their sends
	// enqueue at different switches and the property is ID-oblivious.
	if dependent(fps[sendA], fps[sendB]) {
		t.Errorf("sends on distinct hosts/switches should be independent:\n%+v\n%+v",
			fps[sendA], fps[sendB])
	}
	if !dependent(fps[sendA], fps[sendA]) {
		t.Error("a transition must be dependent with itself")
	}
	if sp.idSensitive {
		t.Error("counting property is marked oblivious; space should not be ID-sensitive")
	}
}

// TestFootprintIDSensitive: without the oblivious marker, allocating
// transitions become pairwise dependent through the allocator component.
func TestFootprintIDSensitive(t *testing.T) {
	cfg := dporConfig(1, 0)
	cfg.Properties = append(cfg.Properties, &idTrackerProp{})
	sys := NewSystem(cfg)
	sp := newComponentSpace(sys)
	if !sp.idSensitive {
		t.Fatal("idTrackerProp lacks the marker; space must be ID-sensitive")
	}
	enabled := sys.Enabled()
	fps, _ := sp.footprintsInto(sys, enabled, nil, nil)
	var sends []int
	for i, tr := range enabled {
		if tr.Kind == THostSend {
			sends = append(sends, i)
		}
	}
	if len(sends) < 2 {
		t.Fatalf("want two sends, got %v", enabled)
	}
	if !dependent(fps[sends[0]], fps[sends[1]]) {
		t.Error("allocating sends must conflict when an ID-sensitive property is attached")
	}
}

// checkCommutation asserts the core independence contract at one state:
// for every enabled pair claimed independent, both execution orders
// stay enabled and reach the same fingerprint.
func checkCommutation(t *testing.T, sys *System, sp *componentSpace, maxPairs int) int {
	t.Helper()
	enabled := sys.Enabled()
	fps, _ := sp.footprintsInto(sys, enabled, nil, nil)
	checked := 0
	for i := 0; i < len(enabled) && checked < maxPairs; i++ {
		for j := i + 1; j < len(enabled) && checked < maxPairs; j++ {
			if dependent(fps[i], fps[j]) {
				continue
			}
			checked++
			ij := applyPair(t, sys, enabled[i], enabled[j])
			ji := applyPair(t, sys, enabled[j], enabled[i])
			if ij != ji {
				t.Fatalf("claimed-independent pair does not commute:\n  t=%s\n  u=%s\n  t;u=%v u;t=%v",
					enabled[i].Key(), enabled[j].Key(), ij, ji)
			}
		}
	}
	return checked
}

// applyPair executes first then second on a clone, asserting second is
// still enabled after first, and returns the resulting fingerprint.
func applyPair(t *testing.T, sys *System, first, second Transition) [2]uint64 {
	t.Helper()
	s := sys.Clone()
	defer s.Release()
	s.Apply(first)
	found := false
	for _, tr := range s.Enabled() {
		if tr.Key() == second.Key() {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("independence must preserve enabledness: %s disabled %s",
			first.Key(), second.Key())
	}
	s.Apply(second)
	return s.Fingerprint()
}

// commutationWalk drives a seeded random walk, checking commutation of
// claimed-independent pairs at every visited state.
func commutationWalk(t *testing.T, cfg *Config, seed int64, steps int) {
	t.Helper()
	sys := NewSystem(cfg)
	sp := newComponentSpace(sys)
	rng := rand.New(rand.NewSource(seed))
	for step := 0; step < steps; step++ {
		checkCommutation(t, sys, sp, 64)
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			return
		}
		sys.Apply(enabled[rng.Intn(len(enabled))])
	}
}

func TestIndependenceCommutes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		commutationWalk(t, dporConfig(2, 0), seed, 40)
	}
	// ID-sensitive variant: the allocator component must keep the claims
	// honest when a property hashes packet IDs into state identity.
	cfg := dporConfig(2, 0)
	cfg.Properties = append(cfg.Properties, &idTrackerProp{})
	for seed := int64(0); seed < 4; seed++ {
		commutationWalk(t, cfg, seed, 40)
	}
}

// FuzzIndependenceCommutes is the CI-smoked form of the commutation
// property: the fuzzer picks the walk seed and depth.
func FuzzIndependenceCommutes(f *testing.F) {
	f.Add(int64(1), uint8(20))
	f.Add(int64(42), uint8(60))
	f.Add(int64(7), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		commutationWalk(t, dporConfig(2, 0), seed, int(steps)%80)
	})
}
