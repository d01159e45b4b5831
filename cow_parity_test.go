// Differential parity for copy-on-write state forking: on every
// registered scenario, under all four engines, the COW protocol must
// reproduce the retained deep-clone reference path exactly — identical
// violated-property sets, unique-state and transition counts, and
// identical fingerprints for the root state and for every violation
// trace's replayed end state. Warm shared discover caches pin down
// state identity so counts are schedule-independent (the same setting
// the engine-parity tests use).
package nice_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// parityEngines are the four engine constructors of the acceptance
// matrix, with options that keep walk trajectories deterministic under
// warm caches.
var parityEngines = []struct {
	name string
	mk   func() nice.Engine
	eo   core.EngineOptions
}{
	{"SequentialDFS", nice.SequentialDFS, core.EngineOptions{}},
	{"ParallelHybrid", nice.ParallelHybrid, core.EngineOptions{Workers: 4}},
	{"RandomWalks", nice.RandomWalks, core.EngineOptions{Seed: 11, Walks: 24, Steps: 60}},
	{"SeededSwarm", nice.SeededSwarm, core.EngineOptions{Workers: 2, Seed: 11, Walks: 24, Steps: 60}},
}

// parityScales overrides the scale knob where a scenario's default
// full search (early stop disabled) is too large for a test-matrix
// cell; the COW protocol is scale-independent, so a bounded instance
// proves the same parity.
var parityScales = map[string]int{
	"pyswitch-fattree": 2, // k=4's full flooding search runs for minutes
}

func TestCOWDeepCloneParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry × engine × clone-mode sweep is slow")
	}
	all := scenarios.All()
	if len(all) < 19 {
		t.Fatalf("registry holds %d scenarios, expected at least 19", len(all))
	}
	ctx := context.Background()
	for _, sc := range all {
		for _, eng := range parityEngines {
			sc, eng := sc, eng
			t.Run(sc.Name+"/"+eng.name, func(t *testing.T) {
				t.Parallel()
				build := func(deep bool) *nice.Config {
					cfg := sc.Config(parityScales[sc.Name])
					cfg.StopAtFirstViolation = false
					if deep {
						cfg = core.WithDeepClone(cfg)
					}
					return cfg
				}
				cc := nice.NewCaches()
				core.NewCheckerWith(build(false), cc).Run() // warm the discover caches

				run := func(deep bool) *nice.Report {
					eo := eng.eo
					eo.Caches = cc
					return eng.mk().Search(ctx, build(deep), eo)
				}
				cow := run(false)
				deep := run(true)

				if cow.UniqueStates != deep.UniqueStates || cow.Transitions != deep.Transitions {
					t.Errorf("COW states/trans %d/%d != deep-clone %d/%d",
						cow.UniqueStates, cow.Transitions, deep.UniqueStates, deep.Transitions)
				}
				if !sameSet(violatedSet(cow), violatedSet(deep)) {
					t.Errorf("COW violations %v != deep-clone %v",
						violatedSet(cow), violatedSet(deep))
				}

				// Fingerprint parity: the root state and every COW
				// violation trace replayed under both clone modes must
				// land on identical fingerprints and oracle keys.
				rootC := core.NewSystemWith(build(false), cc)
				rootD := core.NewSystemWith(build(true), cc)
				if rootC.Fingerprint() != rootD.Fingerprint() {
					t.Errorf("root fingerprints differ between clone modes")
				}
				for i := range cow.Violations {
					trace := cow.Violations[i].Trace
					sysC, _ := core.NewCheckerWith(build(false), cc).Replay(trace)
					sysD, _ := core.NewCheckerWith(build(true), cc).Replay(trace)
					if sysC.Fingerprint() != sysD.Fingerprint() {
						t.Errorf("violation %d: replayed fingerprints differ between clone modes", i)
					}
					if sysC.OracleKey() != sysD.OracleKey() {
						t.Errorf("violation %d: replayed oracle keys differ between clone modes", i)
					}
				}
			})
		}
	}
}
