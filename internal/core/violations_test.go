package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestViolationSetTraceDedup: the merged report keeps one violation per
// (property, trace) — workers or swarm walks that race to the same
// violating execution (possibly rendering slightly different error
// text) report it once, not once per worker — while distinct traces for
// the same property survive under their own error keys; and a kept
// trace is replaced only by a strictly shorter one.
func TestViolationSetTraceDedup(t *testing.T) {
	var s violationSet
	traceA := []Transition{{Kind: THostDiscover, Host: 1}}
	traceA2 := []Transition{{Kind: THostDiscover, Host: 2}}
	traceB := []Transition{{Kind: THostDiscover, Host: 1},
		{Kind: TSwitchProcess, Sw: 1}}

	if _, isNew := s.add(Violation{Property: "P", Err: errors.New("worker 0 wording"), Trace: traceB}); !isNew {
		t.Fatal("first add must report a new key")
	}
	if _, isNew := s.add(Violation{Property: "P", Err: errors.New("worker 0 wording"), Trace: traceA}); isNew {
		t.Fatal("repeat add must not report a new key")
	}
	// Equal length: the kept trace stays — no tie-break, nothing rendered.
	s.add(Violation{Property: "P", Err: errors.New("worker 0 wording"), Trace: traceA2})
	// Longer: the kept trace stays.
	s.add(Violation{Property: "P", Err: errors.New("worker 0 wording"), Trace: traceB})
	// Same property and trace, different error text: merged away.
	s.add(Violation{Property: "P", Err: errors.New("worker 1 wording"), Trace: traceA})
	// Same property, genuinely different trace: kept.
	s.add(Violation{Property: "P", Err: errors.New("deeper failure"), Trace: traceB})
	// Different property, same trace: kept.
	s.add(Violation{Property: "A", Err: errors.New("other property"), Trace: traceA})

	got := s.list()
	want := []string{"A|other property", "P|deeper failure", "P|worker 0 wording"}
	if len(got) != len(want) {
		t.Fatalf("merged %d violations, want %d: %v", len(got), len(want), got)
	}
	for i, v := range got {
		if key := v.Property + "|" + v.Err.Error(); key != want[i] {
			t.Errorf("violation %d is %q, want %q (sorted by property, then error)", i, key, want[i])
		}
	}
	if kept := got[2].Trace; len(kept) != 1 || kept[0].Host != 1 {
		t.Errorf("kept trace %v, want the strictly shorter one that arrived first", kept)
	}
	if TraceFingerprint(traceA) == TraceFingerprint(traceB) || traceFold(traceA) == traceFold(traceB) {
		t.Fatal("distinct traces share an identity")
	}
}

// TestViolationSetRendersNothing pins the pitfall a full search measured
// (the load balancer records 2 262 violations for 422 keys, 1 009 of
// them equal-length duplicates): recording a held key through
// Session.record, as every engine step does, must allocate nothing — no
// key string, no trace copy — and listing must not render traces (a
// rendering set read +18 % allocations per state there). A stored trace
// is the set's own copy, so a caller may reuse the one it passed.
func TestViolationSetRendersNothing(t *testing.T) {
	const n, steps = 400, 40
	sess := Begin(context.Background(), "dfs", &Config{}, EngineOptions{}, nil)
	defer sess.Close()
	errs := make([]error, n)
	trace := make([]Transition, steps)
	for i := range errs {
		for j := range trace {
			trace[j] = Transition{Kind: TSwitchProcess, Sw: 1, Host: 2, Port: 3, seq: i*steps + j}
			trace[j].Hdr.TCPSeq = uint32(i*steps + j)
		}
		errs[i] = fmt.Errorf("packet %d forgotten", i)
		sess.record(Violation{Property: "NoForgottenPackets", Err: errs[i], Trace: trace})
	}

	dup := Violation{Property: "NoForgottenPackets", Err: errs[7], Trace: trace}
	if per := testing.AllocsPerRun(100, func() { sess.record(dup) }); per != 0 {
		t.Errorf("recording a held key with an equal-length trace: %.0f allocs, want none", per)
	}
	var listed int
	per := testing.AllocsPerRun(10, func() { listed = len(sess.viols.list()) })
	if listed != n {
		t.Fatalf("listed %d violations, want %d", listed, n)
	}
	if per > 3*n {
		t.Errorf("listing %d kept %d-step violations: %.0f allocs, want a small constant per violation", n, steps, per)
	}
	t.Logf("list: %.0f allocs for %d violations", per, n)
	for i, err := range errs {
		if v := sess.viols.m[violationKey{"NoForgottenPackets", err.Error()}]; v.Trace[0].seq != i*steps {
			t.Fatalf("%v holds a trace rewritten after it was recorded", err)
		}
	}
}
