package core

import (
	"context"
	"errors"
	"testing"

	"github.com/nice-go/nice/openflow"
)

// failingProp fails on every host send and at every quiescent state.
type failingProp struct{ name string }

func (p failingProp) Name() string     { return p.name }
func (p failingProp) Clone() Property  { return p }
func (p failingProp) StateKey() string { return "" }
func (p failingProp) OnEvents(sys *System, events []Event) error {
	for _, e := range events {
		if e.Kind == EvHostSend {
			return errors.New("sent")
		}
	}
	return nil
}
func (p failingProp) AtQuiescence(sys *System) error { return errors.New("quiet") }

// TestRecordHeldViolationAllocs: an engine step records a violation
// against the caller's transition stack, so recording one the session
// already holds, after a transition or at quiescence, allocates nothing.
func TestRecordHeldViolationAllocs(t *testing.T) {
	s := Begin(context.Background(), "parallel", &Config{}, EngineOptions{}, nil)
	var stack []Transition
	for i := 0; i < 40; i++ {
		stack = append(stack, Transition{Kind: TSwitchProcess, Port: openflow.PortID(i)})
	}
	stack = append(stack, Transition{Kind: THostSend})
	v := Violation{Property: "NoForgottenPackets", Err: errors.New("packet forgotten"), Trace: stack}
	s.record(v)
	if per := testing.AllocsPerRun(100, func() { s.record(v) }); per != 0 {
		t.Errorf("recording a held violation: %.0f allocs, want none", per)
	}
	v.Quiescence = true
	if per := testing.AllocsPerRun(100, func() { s.record(v) }); per != 0 {
		t.Errorf("recording a held violation at quiescence: %.0f allocs, want none", per)
	}
	r := s.End(context.Background())
	if len(r.Violations) != 1 || len(r.Violations[0].Trace) != 41 || r.Violations[0].Trace[40].Kind != THostSend {
		t.Fatalf("recorded %v, want one violation over the 41-transition stack", r.Violations)
	}
}

// TestRecordQuiescenceStops pins the recording rule of Step and Leaf:
// after a transition every failure is recorded, but at quiescence
// recording stops at the failure that stopped the search, so a search
// that stops at its first violation reports exactly one quiescence
// failure of its last state.
func TestRecordQuiescenceStops(t *testing.T) {
	for _, quiescence := range []bool{false, true} {
		cfg := hubConfig(1)
		cfg.Properties = []Property{failingProp{"A"}, failingProp{"B"}}
		cfg.StopAtFirstViolation = true
		s := Begin(context.Background(), "dfs", cfg, EngineOptions{}, nil)
		sys := s.NewSystem()
		if quiescence {
			if !s.Leaf(sys, nil, nil) {
				t.Fatal("a dead end is no leaf")
			}
		} else {
			send := sys.Enabled()[0]
			if !s.Step(sys, send, []Transition{send}, new([]Event)) {
				t.Fatal("the send violated nothing")
			}
		}
		want := 2
		if quiescence {
			want = 1
		}
		r := s.End(context.Background())
		if len(r.Violations) != want {
			t.Errorf("quiescence=%v: recorded %d violations, want %d", quiescence, len(r.Violations), want)
		}
		for _, v := range r.Violations {
			if v.Quiescence != quiescence || (len(v.Trace) == 0) != quiescence {
				t.Errorf("quiescence=%v: recorded %+v", quiescence, v)
			}
		}
	}
}
