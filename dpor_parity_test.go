// Differential parity for dynamic partial-order reduction: on every
// registered scenario, under both exhaustive engines, DPOR must report
// exactly the violated-property set of the unreduced search — same
// bugs, fewer interleavings. Warm shared discover caches pin down state
// identity (the same setting the COW and engine parity tests use). The
// random-walk engines ignore WithReduction (a walk is one
// interleaving; there is nothing to reduce), so the matrix covers
// SequentialDFS and ParallelHybrid.
//
// TestDPORReductionFloor then holds the reduction to its purpose on the
// disjoint-flow shapes it is built for: the same verdict from at most
// 70 % of the unreduced search's unique states — a within-run ratio of
// two counts, so it needs neither a clock nor a recorded baseline.
package nice_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// dporParityEngines is the exhaustive-engine matrix for reduction
// parity.
var dporParityEngines = []struct {
	name string
	mk   func() nice.Engine
	eo   core.EngineOptions
}{
	{"SequentialDFS", nice.SequentialDFS, core.EngineOptions{}},
	{"ParallelHybrid", nice.ParallelHybrid, core.EngineOptions{Workers: 4}},
}

func TestDPORScenarioParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry × engine × reduction sweep is slow")
	}
	all := scenarios.All()
	if len(all) < 19 {
		t.Fatalf("registry holds %d scenarios, expected at least 19", len(all))
	}
	ctx := context.Background()
	for _, sc := range all {
		for _, eng := range dporParityEngines {
			sc, eng := sc, eng
			t.Run(sc.Name+"/"+eng.name, func(t *testing.T) {
				t.Parallel()
				build := func() *nice.Config {
					cfg := sc.Config(parityScales[sc.Name])
					cfg.StopAtFirstViolation = false
					return cfg
				}
				cc := nice.NewCaches()
				core.NewCheckerWith(build(), cc).Run() // warm the discover caches

				run := func(r nice.Reduction) *nice.Report {
					eo := eng.eo
					eo.Caches = cc
					eo.Reduction = r
					return eng.mk().Search(ctx, build(), eo)
				}
				full := run(nice.NoReduction)
				red := run(nice.DPOR)

				if !sameSet(violatedSet(full), violatedSet(red)) {
					t.Errorf("DPOR violations %v != unreduced %v",
						violatedSet(red), violatedSet(full))
				}
				if red.UniqueStates > full.UniqueStates {
					t.Errorf("DPOR explored more states than the full search: %d > %d",
						red.UniqueStates, full.UniqueStates)
				}
				// Transition counts are logged, not asserted: on
				// revisit-heavy scenarios the stateful sleep-set patch
				// may re-execute a handful of transitions during
				// signature re-expansion.
				t.Logf("states %d -> %d, transitions %d -> %d, violations %d",
					full.UniqueStates, red.UniqueStates,
					full.Transitions, red.Transitions, len(red.Violations))
			})
		}
	}
}

func TestDPORReductionFloor(t *testing.T) {
	for _, shape := range []struct {
		name          string
		n             int
		oneWay, micro bool
		sixFigures    bool
	}{
		{name: "linear4-oneway", n: 4, oneWay: true},
		{name: "linear3-pairs", n: 3},
		{name: "linear3-pairs-micro", n: 3, micro: true},
		{name: "linear6-oneway", n: 6, oneWay: true, sixFigures: true},
		{name: "linear4-pairs", n: 4, sixFigures: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
			if shape.sixFigures && testing.Short() {
				t.Skip("six-figure state space")
			}
			t.Parallel()
			// Symbolic execution is off, so state identity needs no
			// warm discover caches.
			run := func(opts ...nice.RunOption) *nice.Report {
				return nice.Run(context.Background(),
					linearPings(shape.n, shape.oneWay, shape.micro), opts...)
			}
			full, red := run(), run(nice.WithReduction(nice.DPOR))
			if !full.Complete || !red.Complete {
				t.Fatalf("search cut short: full %q, reduced %q", full.StopReason, red.StopReason)
			}
			if !sameSet(violatedSet(full), violatedSet(red)) {
				t.Errorf("DPOR violations %v != unreduced %v", violatedSet(red), violatedSet(full))
			}
			if float64(red.UniqueStates) > 0.70*float64(full.UniqueStates) {
				t.Errorf("DPOR explored %d of %d unique states, floor is 70%%",
					red.UniqueStates, full.UniqueStates)
			}
			t.Logf("states %d -> %d (%.2f)", full.UniqueStates, red.UniqueStates,
				float64(red.UniqueStates)/float64(full.UniqueStates))
		})
	}
}
