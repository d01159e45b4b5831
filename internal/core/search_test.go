// The core's models under a full, unreduced search: these tests drive
// the sequential DFS of internal/search, the one search loop, on the
// package's own small configurations (export_test.go hands them out).
package core_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
)

// dfs runs the unreduced sequential DFS over cfg.
func dfs(cfg *core.Config, opts core.EngineOptions) *core.Report {
	return search.DFS().Search(context.Background(), cfg, opts)
}

func TestReplayDeterminism(t *testing.T) {
	cfg := core.HubConfig(2)
	report := dfs(cfg, core.EngineOptions{})
	if report.Transitions == 0 {
		t.Fatal("empty search")
	}

	// Drive one execution and replay it.
	sim := core.NewSimulator(cfg)
	for i := 0; i < 30; i++ {
		en := sim.Enabled()
		if len(en) == 0 {
			break
		}
		if _, _, err := sim.Step(len(en) - 1); err != nil {
			t.Fatal(err)
		}
	}
	want := sim.System().Hash()
	replayed := core.NewSystem(cfg)
	for _, tr := range sim.Trace() {
		replayed.Apply(tr)
	}
	if replayed.Hash() != want {
		t.Error("replay reached a different state")
	}
}

func TestSearchCountsAndRevisits(t *testing.T) {
	report := dfs(core.HubConfig(2), core.EngineOptions{})
	if report.UniqueStates == 0 || report.Transitions < report.UniqueStates-1 {
		t.Errorf("implausible counts: %+v", report)
	}
	if !report.Complete {
		t.Error("bounded search marked incomplete")
	}
	if report.Revisits == 0 {
		t.Log("note: no revisits in this tiny model")
	}
}

func TestMaxTransitionsAborts(t *testing.T) {
	report := dfs(core.HubConfig(3), core.EngineOptions{MaxTransitions: 5})
	if report.Complete {
		t.Error("aborted search marked complete")
	}
	if report.Transitions > 6 {
		t.Errorf("executed %d transitions past the budget", report.Transitions)
	}
}

func TestMaxDepthTruncates(t *testing.T) {
	cfg := core.HubConfig(3)
	cfg.MaxDepth = 3
	report := dfs(cfg, core.EngineOptions{})
	if report.Truncated == 0 {
		t.Error("no truncation at depth 3")
	}
}

func TestNoDelayCollapsesExchanges(t *testing.T) {
	cfg := core.HubConfig(2)
	cfg.NoDelay = true
	plain := dfs(core.HubConfig(2), core.EngineOptions{})
	lockstep := dfs(cfg, core.EngineOptions{})
	if lockstep.UniqueStates >= plain.UniqueStates {
		t.Errorf("NO-DELAY did not reduce states: %d vs %d",
			lockstep.UniqueStates, plain.UniqueStates)
	}
	// Under lock step a single send drains in one transition.
	sim := core.NewSimulator(cfg)
	if _, _, err := sim.Step(0); err != nil { // send
		t.Fatal(err)
	}
	if _, _, err := sim.Step(0); err != nil { // process_pkt + the whole exchange
		t.Fatal(err)
	}
	if in := sim.System().Controller().PendingIn(); len(in) != 0 {
		t.Errorf("controller channel not drained under NO-DELAY: %v", in)
	}
}

// TestDPORParity: the reduced search finds exactly the violations the
// full search finds, while executing no more transitions. The workload
// runs at full depth — depth truncation forces conservative global
// summaries that disable pruning (soundness is preserved, reduction is
// not), which the bench-level tests cover separately.
func TestDPORParity(t *testing.T) {
	for _, failAt := range []int{0, 1} {
		t.Run(fmt.Sprintf("failAt=%d", failAt), func(t *testing.T) {
			mk := func() *core.Config {
				cfg := core.DporConfig(1, failAt)
				cfg.StopAtFirstViolation = false
				return cfg
			}
			full := dfs(mk(), core.EngineOptions{})
			red := dfs(mk(), core.EngineOptions{Reduction: core.ReductionDPOR})

			fullViol, redViol := core.ViolationKeys(full), core.ViolationKeys(red)
			if len(fullViol) != len(redViol) {
				t.Fatalf("violation sets differ: full=%v dpor=%v", fullViol, redViol)
			}
			for i := range fullViol {
				if fullViol[i] != redViol[i] {
					t.Fatalf("violation sets differ: full=%v dpor=%v", fullViol, redViol)
				}
			}
			if red.Transitions > full.Transitions {
				t.Errorf("DPOR executed more transitions (%d) than full search (%d)",
					red.Transitions, full.Transitions)
			}
			if red.UniqueStates > full.UniqueStates {
				t.Errorf("DPOR visited more states (%d) than full search (%d)",
					red.UniqueStates, full.UniqueStates)
			}
			t.Logf("full: %d states / %d transitions; dpor: %d states / %d transitions",
				full.UniqueStates, full.Transitions, red.UniqueStates, red.Transitions)
		})
	}
}

// TestDPORReduces: on the concurrent workload the reduction must
// actually prune, not just break even.
func TestDPORReduces(t *testing.T) {
	mk := func() *core.Config { return core.DporConfig(1, 0) }
	full := dfs(mk(), core.EngineOptions{})
	red := dfs(mk(), core.EngineOptions{Reduction: core.ReductionDPOR})
	if red.Transitions >= full.Transitions {
		t.Fatalf("no reduction: full=%d transitions, dpor=%d", full.Transitions, red.Transitions)
	}
	t.Logf("transitions: full=%d dpor=%d (%.0f%%)", full.Transitions, red.Transitions,
		100*float64(red.Transitions)/float64(full.Transitions))
}

// TestFaultSearchTerminates: a full search with all fault budgets on a
// small model terminates and visits fault branches.
func TestFaultSearchTerminates(t *testing.T) {
	cfg := core.HubConfig(1)
	cfg.Faults = core.FaultModel{MaxDrops: 1, MaxDuplicates: 1, MaxReorders: 1}
	report := dfs(cfg, core.EngineOptions{})
	if !report.Complete {
		t.Error("fault-model search did not complete")
	}
	if report.Transitions == 0 {
		t.Error("empty search")
	}
	base := dfs(core.HubConfig(1), core.EngineOptions{})
	if report.UniqueStates <= base.UniqueStates {
		t.Errorf("fault model added no states: %d vs %d", report.UniqueStates, base.UniqueStates)
	}
}
