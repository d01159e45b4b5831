package search

import (
	"context"
	"testing"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// violatedSet projects a report onto its violated-property set.
func violatedSet(r *core.Report) map[string]bool {
	set := make(map[string]bool)
	for _, v := range r.Violations {
		set[v.Property] = true
	}
	return set
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// parallel runs the work-stealing engine with fresh discover caches
// unless cc is given.
func parallel(cfg *core.Config, workers int, cc *core.Caches) *core.Report {
	return Parallel().Search(context.Background(), cfg,
		core.EngineOptions{Workers: workers, Caches: cc})
}

// fullSearch is the bug scenario with the early stop removed, so both
// engines walk the whole state space and reports are comparable.
func fullSearch(b scenarios.Bug) *core.Config {
	cfg := scenarios.BugConfig(b)
	cfg.StopAtFirstViolation = false
	return cfg
}

// TestDifferentialParityNoSE checks exact cold-start parity on the §7
// pyswitch ping workload, where symbolic execution is off and state
// identity is independent of the discover caches: the parallel engine
// must reach exactly the sequential checker's unique states and execute
// exactly its transitions, for any worker count.
func TestDifferentialParityNoSE(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		cfg := scenarios.PingPong(2)
		seq := core.NewChecker(cfg).Run()
		par := parallel(scenarios.PingPong(2), workers, nil)
		if par.UniqueStates != seq.UniqueStates || par.Transitions != seq.Transitions ||
			par.Revisits != seq.Revisits {
			t.Errorf("workers=%d: parallel states/trans/revisits %d/%d/%d != sequential %d/%d/%d",
				workers, par.UniqueStates, par.Transitions, par.Revisits,
				seq.UniqueStates, seq.Transitions, seq.Revisits)
		}
	}
}

// TestDifferentialParityWarm checks exact parity on every Table 2
// scenario — pyswitch (BUG-I..III), load balancer (BUG-IV..VII) and TE
// (BUG-VIII..XI) — with the discover caches warmed by one sequential
// run and then shared. Warm caches pin down state identity (cache
// presence is part of the hash, mirroring Figure 5's client.packets
// map), making unique-state and transition counts schedule-independent;
// the parallel engine must match the sequential oracle exactly.
func TestDifferentialParityWarm(t *testing.T) {
	for _, b := range scenarios.AllBugs {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			cfg := fullSearch(b)
			cc := core.NewCaches()
			core.NewCheckerWith(cfg, cc).Run() // warm the discover caches
			seq := core.NewCheckerWith(cfg, cc).Run()
			par := parallel(cfg, 4, cc)
			if par.UniqueStates != seq.UniqueStates || par.Transitions != seq.Transitions {
				t.Errorf("parallel states/trans %d/%d != sequential %d/%d",
					par.UniqueStates, par.Transitions, seq.UniqueStates, seq.Transitions)
			}
			if !sameSet(violatedSet(par), violatedSet(seq)) {
				t.Errorf("violated properties differ: parallel %v, sequential %v",
					violatedSet(par), violatedSet(seq))
			}
		})
	}
}

// TestDifferentialViolations checks that cold-start parallel searches
// find exactly the sequential checker's violated-property set on every
// bug scenario. (Cold unique-state counts can differ slightly on
// SE-enabled scenarios — discover-cache presence is part of state
// identity and fills in schedule order — but the violations cannot:
// every reachable underlying state is eventually expanded with its full
// send repertoire under any schedule.)
func TestDifferentialViolations(t *testing.T) {
	for _, b := range scenarios.AllBugs {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			seq := core.NewChecker(fullSearch(b)).Run()
			par := parallel(fullSearch(b), 4, nil)
			if !sameSet(violatedSet(par), violatedSet(seq)) {
				t.Errorf("violated properties differ: parallel %v, sequential %v",
					violatedSet(par), violatedSet(seq))
			}
			if !violatedSet(par)[b.ExpectedProperty()] {
				t.Errorf("parallel search missed %s", b.ExpectedProperty())
			}
		})
	}
}

// TestReplayDeterminism: every violation the parallel engine reports
// must reproduce — same property, same error — when its trace is
// replayed from a fresh initial state through the sequential checker.
// This is the paper's deterministic-replay guarantee (§1.3, §6) carried
// over to traces recorded concurrently.
func TestReplayDeterminism(t *testing.T) {
	for _, b := range scenarios.AllBugs {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			par := parallel(fullSearch(b), 4, nil)
			if len(par.Violations) == 0 {
				t.Fatalf("no violations to replay")
			}
			for _, v := range par.Violations {
				_, got := core.NewChecker(fullSearch(b)).ReplayWithProperties(v.Trace)
				if got == nil {
					t.Errorf("violation of %s did not reproduce on replay", v.Property)
					continue
				}
				if got.Property != v.Property || got.Err.Error() != v.Err.Error() {
					t.Errorf("replay reproduced %s (%v), parallel engine reported %s (%v)",
						got.Property, got.Err, v.Property, v.Err)
				}
			}
		})
	}
}

// TestReportDeterministic: a full parallel search reports the same
// violations, in the same sorted order, on every run — regardless of
// worker interleaving. (Trace lengths may vary: which path first
// reaches a violating state is scheduling-dependent; replayability of
// whatever trace is kept is asserted by TestReplayDeterminism.)
func TestReportDeterministic(t *testing.T) {
	ref := parallel(fullSearch(scenarios.BugIII), 4, nil)
	for i := 0; i < 3; i++ {
		got := parallel(fullSearch(scenarios.BugIII), 4, nil)
		if len(got.Violations) != len(ref.Violations) {
			t.Fatalf("run %d: %d violations, want %d", i, len(got.Violations), len(ref.Violations))
		}
		for j := range got.Violations {
			g, r := got.Violations[j], ref.Violations[j]
			if g.Property != r.Property || g.Err.Error() != r.Err.Error() {
				t.Errorf("run %d violation %d: got %s (%v), want %s (%v)",
					i, j, g.Property, g.Err, r.Property, r.Err)
			}
		}
	}
}

// TestStopAtFirstViolation: the parallel engine honors the early stop
// and still returns a reproducible violation.
func TestStopAtFirstViolation(t *testing.T) {
	cfg := scenarios.BugConfig(scenarios.BugII) // StopAtFirstViolation set
	par := parallel(cfg, 4, nil)
	v := par.FirstViolation()
	if v == nil {
		t.Fatal("no violation found")
	}
	if v.Property != scenarios.BugII.ExpectedProperty() {
		t.Fatalf("found %s, want %s", v.Property, scenarios.BugII.ExpectedProperty())
	}
	_, got := core.NewChecker(scenarios.BugConfig(scenarios.BugII)).ReplayWithProperties(v.Trace)
	if got == nil || got.Property != v.Property {
		t.Fatalf("early-stop violation did not reproduce on replay")
	}
}

// TestMaxTransitionsBudget: the engine aborts at the transition budget
// and marks the report incomplete, like the sequential checker.
func TestMaxTransitionsBudget(t *testing.T) {
	const budget = 50
	par := Parallel().Search(context.Background(), scenarios.PingPong(3),
		core.EngineOptions{Workers: 4, MaxTransitions: budget})
	if par.Complete {
		t.Error("report marked complete despite the budget")
	}
	// Budget slots are reserved before applying, so the bound is exact.
	if par.Transitions > budget {
		t.Errorf("executed %d transitions, budget %d", par.Transitions, budget)
	}
}

// TestSwarmWorkerInvariance: walk i always runs with seed Seed+i, so a
// swarm's walk set — its transitions, unique states (SE off) and
// violations — does not depend on the worker count.
func TestSwarmWorkerInvariance(t *testing.T) {
	run := func(workers int) *core.Report {
		return SwarmEngine().Search(context.Background(), scenarios.PingPong(3),
			core.EngineOptions{Workers: workers, Seed: 7, Walks: 32, Steps: 60})
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.Transitions != ref.Transitions || got.UniqueStates != ref.UniqueStates {
			t.Errorf("workers=%d: trans/states %d/%d != workers=1 %d/%d",
				workers, got.Transitions, got.UniqueStates, ref.Transitions, ref.UniqueStates)
		}
	}
}

// TestSwarmFindsViolation: the swarm reproduces the random-walk hunt
// (cmd/nice's walk mode) and its finds replay deterministically.
func TestSwarmFindsViolation(t *testing.T) {
	cfg := scenarios.BugConfig(scenarios.BugIV)
	par := SwarmEngine().Search(context.Background(), cfg,
		core.EngineOptions{Workers: 4, Seed: 1, Walks: 100, Steps: 60})
	v := par.FirstViolation()
	if v == nil {
		t.Fatal("swarm found no violation on BUG-IV")
	}
	_, got := core.NewChecker(scenarios.BugConfig(scenarios.BugIV)).ReplayWithProperties(v.Trace)
	if got == nil || got.Property != v.Property || got.Err.Error() != v.Err.Error() {
		t.Fatalf("swarm violation did not reproduce on replay")
	}
}

// TestSeenSet exercises the striped set directly.
func TestSeenSet(t *testing.T) {
	s := newSeenSet(8)
	a := canon.Digest{0, 0} // also produced by the i=0 loop iteration below
	if !s.Add(a) || s.Add(a) {
		t.Error("Add must report first insertion exactly once")
	}
	for i := 0; i < 1000; i++ {
		s.Add(canon.Digest{uint64(i % 26), uint64(i % 26)})
	}
	if got := s.Len(); got != 26 {
		t.Errorf("Len = %d, want 26", got)
	}
}

// TestFrontierStealing exercises push/pop/steal ordering: owners pop
// newest-first, thieves steal oldest-first.
func TestFrontierStealing(t *testing.T) {
	f := newFrontier(2, new(core.Session))
	d1 := (*core.PathNode)(nil).Child(core.Transition{})
	d2 := d1.Child(core.Transition{})
	a := item{}
	b := item{path: d1}
	c := item{path: d2}
	f.push(0, a)
	f.push(0, b)
	f.push(0, c)
	if it, ok := f.steal(1); !ok || it.path.Depth() != 0 {
		t.Fatalf("thief should take the oldest item (depth 0)")
	}
	if it, ok := f.popLocal(0); !ok || it.path.Depth() != 2 {
		t.Fatalf("owner should pop the newest item (depth 2)")
	}
	if it, ok := f.popLocal(0); !ok || it.path.Depth() != 1 {
		t.Fatalf("owner should pop the remaining item (depth 1)")
	}
	if _, ok := f.popLocal(0); ok {
		t.Fatal("deque should be empty")
	}
}
