package scenarios

import (
	"math/rand"
	"testing"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/props"
)

// TestDirectPathsOnFixedTE exercises the DirectPaths property end to
// end: the repaired TE controller establishes a direct path with the
// first packet of a flow, so later packets of that flow never reach the
// controller (§5.2 — the property "is useful for many OpenFlow
// applications, though it does not apply to the MAC-learning switch").
func TestDirectPathsOnFixedTE(t *testing.T) {
	cfg := MustLookup("bug-viii").Config(0)
	cfg.App = energyte.New(energyte.Fixed, cfg.Topo, TEThreshold, 0)
	cfg.Hosts[0].SendBudget = 2
	cfg.Properties = []core.Property{
		props.NewDirectPaths(),
		props.NewNoForgottenPackets(),
	}
	report := core.NewChecker(cfg).Run()
	if v := report.FirstViolation(); v != nil {
		t.Fatalf("fixed TE violates %s: %v\n%s", v.Property, v.Err, v)
	}
	t.Logf("DirectPaths holds over %d transitions / %d states", report.Transitions, report.UniqueStates)
}

// TestWalkPrefixDeterminism is the core determinism invariant behind
// replay-based trace reproduction (§6): applying the same transition
// sequence to independently built systems always produces the same
// state hash. Prefixes come from random walks over the BUG-II scenario
// (symbolic execution on, so discover transitions participate).
func TestWalkPrefixDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		cfg := MustLookup("bug-ii").Config(0)
		cfg.StopAtFirstViolation = false
		simA := core.NewSimulator(cfg)

		var picks []int
		for step := 0; step < 25; step++ {
			en := simA.Enabled()
			if len(en) == 0 {
				break
			}
			i := rng.Intn(len(en))
			picks = append(picks, i)
			if _, _, err := simA.Step(i); err != nil {
				t.Fatal(err)
			}
		}

		simB := core.NewSimulator(MustLookup("bug-ii").Config(0))
		for _, i := range picks {
			if _, _, err := simB.Step(i); err != nil {
				t.Fatalf("trial %d: replaying pick %d: %v", trial, i, err)
			}
		}
		if simA.System().Hash() != simB.System().Hash() {
			t.Fatalf("trial %d: same picks, different states", trial)
		}
		// Hashing is stable and clone-invariant.
		if simA.System().Hash() != simA.System().Hash() {
			t.Fatal("hash not idempotent")
		}
		if simA.System().Clone().Hash() != simA.System().Hash() {
			t.Fatal("clone hash differs from original")
		}
	}
}

// TestEnabledSetsAgreeAcrossEqualStates: two independently built systems
// that hash equal must enable the same transitions in the same order —
// the property that makes hash-based state matching sound.
func TestEnabledSetsAgreeAcrossEqualStates(t *testing.T) {
	simA := core.NewSimulator(MustLookup("bug-iv").Config(0))
	simB := core.NewSimulator(MustLookup("bug-iv").Config(0))
	for step := 0; step < 15; step++ {
		ea, eb := simA.Enabled(), simB.Enabled()
		if len(ea) != len(eb) {
			t.Fatalf("step %d: enabled sizes differ", step)
		}
		for i := range ea {
			if ea[i].Key() != eb[i].Key() {
				t.Fatalf("step %d: enabled[%d] differs: %s vs %s", step, i, ea[i].Key(), eb[i].Key())
			}
		}
		if len(ea) == 0 {
			break
		}
		simA.Step(0)
		simB.Step(0)
		if simA.System().Hash() != simB.System().Hash() {
			t.Fatalf("step %d: states diverged", step)
		}
	}
}
