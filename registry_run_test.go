// Differential parity for the unified entry point: on every registered
// Table 2 scenario, under every Table 2 strategy column, nice.Run on the
// parallel engine must reproduce the sequential checker's exact
// unique-state and transition counts and violated-property sets once the
// discover caches are warm (warm caches pin down state identity, making
// counts schedule-independent — the same setting internal/search's
// differential tests use).
package nice_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

func violatedSet(r *nice.Report) map[string]bool {
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

// TestRunRegistryMatrixParity sweeps the registry's Table 2 scenarios ×
// strategy columns: Run on the parallel engine must match the
// sequential checker exactly, and the found/missed outcome must match
// the registry's expected-violation matrix.
func TestRunRegistryMatrixParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry × strategy × engine sweep is slow")
	}
	ctx := context.Background()
	for _, sc := range scenarios.Table2() {
		for _, strat := range scenarios.Strategies {
			sc, strat := sc, strat
			t.Run(sc.Name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				build := func() *nice.Config {
					cfg := sc.Apply(sc.Config(0), strat)
					cfg.StopAtFirstViolation = false
					return cfg
				}
				cc := nice.NewCaches()
				core.NewCheckerWith(build(), cc).Run() // warm the discover caches

				runSeq := nice.Run(ctx, build(), nice.WithCaches(cc))
				runPar := nice.Run(ctx, build(), nice.WithWorkers(4), nice.WithCaches(cc))
				if runPar.UniqueStates != runSeq.UniqueStates ||
					runPar.Transitions != runSeq.Transitions {
					t.Errorf("Run(parallel) states/trans %d/%d != sequential %d/%d (warm caches)",
						runPar.UniqueStates, runPar.Transitions,
						runSeq.UniqueStates, runSeq.Transitions)
				}
				if !sameSet(violatedSet(runPar), violatedSet(runSeq)) {
					t.Errorf("Run(parallel) violations %v != sequential %v",
						violatedSet(runPar), violatedSet(runSeq))
				}

				// The full search finds the bug's property exactly when
				// the registry's Table 2 matrix says the strategy does
				// not miss it.
				found := violatedSet(runSeq)[sc.ExpectedProperty]
				if wantMiss := sc.Misses[strat]; found == wantMiss {
					t.Errorf("found=%v under %s, registry matrix expects miss=%v",
						found, strat, wantMiss)
				}
			})
		}
	}
}

// TestRunSwarmWarmParity: with warm shared caches, the swarm is
// deterministic run to run on every Table 2 scenario — walk i always
// draws from seed+i, whatever the workers' interleaving.
func TestRunSwarmWarmParity(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm sweep is slow")
	}
	ctx := context.Background()
	for _, sc := range scenarios.Table2() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			build := func() *nice.Config {
				cfg := sc.Config(0)
				cfg.StopAtFirstViolation = false
				return cfg
			}
			cc := nice.NewCaches()
			core.NewCheckerWith(build(), cc).Run() // warm the discover caches

			swarm := func() *nice.Report {
				return nice.Run(ctx, build(),
					nice.WithWalks(11, 30, 60), nice.WithWorkers(2), nice.WithCaches(cc))
			}
			first, got := swarm(), swarm()
			if got.Strategy != "swarm" {
				t.Fatalf("engine = %q, want swarm", got.Strategy)
			}
			if got.Transitions != first.Transitions || got.UniqueStates != first.UniqueStates {
				t.Errorf("second swarm trans/states %d/%d != first %d/%d",
					got.Transitions, got.UniqueStates, first.Transitions, first.UniqueStates)
			}
			if !sameSet(violatedSet(got), violatedSet(first)) {
				t.Errorf("second swarm violations %v != first %v",
					violatedSet(got), violatedSet(first))
			}
		})
	}
}
