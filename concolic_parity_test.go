// Differential parity for the concolic feedback loop: on every
// registered scenario the loop must report exactly the violated-property
// set of the eager reference search (it explores the same state graph —
// discover transitions are merely deferred to the solver pool), while
// discovering a strict superset of the eager engines' packet and stats
// classes (proactive feedback targets cover hosts eager discovery never
// reaches). Both searches start cold on private cache sets so the class
// inventories are attributable to one engine each.
package nice_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

func TestConcolicScenarioParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is slow")
	}
	all := scenarios.All()
	if len(all) < 19 {
		t.Fatalf("registry holds %d scenarios, expected at least 19", len(all))
	}
	ctx := context.Background()
	for _, sc := range all {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			build := func() *nice.Config {
				cfg := sc.Config(parityScales[sc.Name])
				cfg.StopAtFirstViolation = false
				return cfg
			}

			ccEager := nice.NewCaches()
			eager := nice.SequentialDFS().Search(ctx, build(),
				core.EngineOptions{Caches: ccEager})

			ccLoop := nice.NewCaches()
			loop := nice.ConcolicLoop().Search(ctx, build(),
				core.EngineOptions{Caches: ccLoop, Workers: 4, SymWorkers: 2})

			if !loop.Complete || loop.StopReason != nice.StopNone {
				t.Fatalf("concolic report partial: stop=%q", loop.StopReason)
			}
			// Identical violation sets — including on the scenarios whose
			// expected property only appears at other scales or strategies
			// (the reference search misses it there too, and the loop must
			// agree exactly, not just find "at least as much").
			if !sameSet(violatedSet(eager), violatedSet(loop)) {
				t.Errorf("concolic violations %v != eager %v",
					violatedSet(loop), violatedSet(eager))
			}
			if sc.ExpectedProperty != "" && violatedSet(eager)[sc.ExpectedProperty] &&
				!violatedSet(loop)[sc.ExpectedProperty] {
				t.Errorf("concolic missed expected violation %q", sc.ExpectedProperty)
			}

			loopClasses := ccLoop.DiscoveredClasses()
			for class := range ccEager.DiscoveredClasses() {
				if !loopClasses[class] {
					t.Errorf("eager class missing from concolic inventory: %s", class)
				}
			}
			// Wherever symbolic execution runs at all the superset is
			// strict: proactive targets reach handlers eager discovery
			// never triggers.
			if e, l := ccEager.Classes(), ccLoop.Classes(); e > 0 && l <= e {
				t.Errorf("concolic discovered no more classes than eager: %d <= %d", l, e)
			}
			t.Logf("classes %d -> %d, states %d -> %d, feedback rounds %d",
				ccEager.Classes(), ccLoop.Classes(),
				eager.UniqueStates, loop.UniqueStates, loop.FeedbackRounds)
		})
	}
}
