package scenarios_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/scenarios"
)

// oracle copies a config onto the oracle hash: states are identified by
// hashing the full from-scratch serialization instead of the incremental
// component-hash combination.
var oracle = core.WithOracleHash

func violated(r *core.Report) map[string]bool {
	set := make(map[string]bool)
	for _, v := range r.Violations {
		set[v.Property] = true
	}
	return set
}

func sameViolations(a, b *core.Report) bool {
	va, vb := violated(a), violated(b)
	if len(va) != len(vb) {
		return false
	}
	for k := range va {
		if !vb[k] {
			return false
		}
	}
	return true
}

func requireSameCounts(t *testing.T, label string, inc, orc *core.Report) {
	t.Helper()
	if inc.UniqueStates != orc.UniqueStates || inc.Transitions != orc.Transitions ||
		inc.Revisits != orc.Revisits || inc.Truncated != orc.Truncated {
		t.Errorf("%s: incremental states/trans/revisits/trunc %d/%d/%d/%d != oracle %d/%d/%d/%d",
			label, inc.UniqueStates, inc.Transitions, inc.Revisits, inc.Truncated,
			orc.UniqueStates, orc.Transitions, orc.Revisits, orc.Truncated)
	}
	if !sameViolations(inc, orc) {
		t.Errorf("%s: violated properties differ: incremental %v, oracle %v",
			label, violated(inc), violated(orc))
	}
}

// TestFingerprintOracleParity is the tentpole's differential acceptance
// test: on all eleven Table 2 scenarios, under all four strategies, the
// incremental fingerprint must reproduce the reflective oracle's
// unique-state and transition counts exactly — cold (fresh discover
// caches per run; the sequential checker is deterministic, so cold runs
// are comparable) and warm (caches pre-filled and shared), sequential
// and parallel (4 workers, warm, where state identity is
// schedule-independent).
func TestFingerprintOracleParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 sweep")
	}
	for _, sc := range scenarios.Table2() {
		for _, s := range scenarios.Strategies {
			sc, s := sc, s
			t.Run(fmt.Sprintf("%s/%s", strings.ToUpper(sc.Name), s), func(t *testing.T) {
				t.Parallel()
				mk := func() *core.Config {
					cfg := sc.Apply(sc.Config(0), s)
					cfg.StopAtFirstViolation = false
					return cfg
				}

				// Cold, sequential.
				inc := core.NewChecker(mk()).Run()
				orc := core.NewChecker(oracle(mk())).Run()
				requireSameCounts(t, "cold", inc, orc)

				// Warm, sequential: one shared cache set, warmed once.
				cc := core.NewCaches()
				core.NewCheckerWith(mk(), cc).Run()
				incW := core.NewCheckerWith(mk(), cc).Run()
				orcW := core.NewCheckerWith(oracle(mk()), cc).Run()
				requireSameCounts(t, "warm", incW, orcW)

				// Warm, parallel: the work-stealing engine on incremental
				// fingerprints against the sequential oracle.
				par := search.Parallel().Search(context.Background(), mk(),
					core.EngineOptions{Workers: 4, Caches: cc})
				if par.UniqueStates != orcW.UniqueStates || par.Transitions != orcW.Transitions {
					t.Errorf("parallel incremental states/trans %d/%d != sequential oracle %d/%d",
						par.UniqueStates, par.Transitions, orcW.UniqueStates, orcW.Transitions)
				}
			})
		}
	}
}

// TestFingerprintCacheIntegrity stress-walks random executions of
// representative scenarios — MAC learning with SE, the load balancer's
// environment reconfiguration, the TE stats workflow, the no-SE ping
// workload, and a fault-model run — verifying after every transition
// that each component's cached canonical key still equals a from-scratch
// render. A failure pinpoints a mutation path missing its dirty hook.
func TestFingerprintCacheIntegrity(t *testing.T) {
	cases := map[string]func() *core.Config{
		"pingpong-noSE": func() *core.Config { return scenarios.MustLookup("pingpong").Config(2) },
		"pyswitch-se":   func() *core.Config { return scenarios.MustLookup("bug-ii").Config(0) },
		"lb-env":        func() *core.Config { return scenarios.MustLookup("bug-v").Config(0) },
		"lb-arp":        func() *core.Config { return scenarios.MustLookup("bug-vi").Config(0) },
		"te-stats":      func() *core.Config { return scenarios.MustLookup("bug-x").Config(0) },
		"mobile-host":   func() *core.Config { return scenarios.MustLookup("bug-i").Config(0) },
		"faults": func() *core.Config {
			cfg := scenarios.MustLookup("pingpong").Config(2)
			cfg.EnableTimers = true
			cfg.Faults = core.FaultModel{
				MaxDrops: 1, MaxDuplicates: 1, MaxReorders: 1,
				MaxLinkFailures: 1, MaxSwitchFailures: 1,
			}
			return cfg
		},
	}
	for name, mk := range cases {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7))
			for walk := 0; walk < 12; walk++ {
				sys := core.NewSystem(mk())
				if err := sys.VerifyCaches(); err != nil {
					t.Fatalf("walk %d: initial state: %v", walk, err)
				}
				for step := 0; step < 40; step++ {
					enabled := sys.Enabled()
					if len(enabled) == 0 {
						break
					}
					tr := enabled[rng.Intn(len(enabled))]
					// Alternate in-place stepping with clone+step so the
					// cache-copying Clone path is exercised too.
					if step%2 == 1 {
						sys = sys.Clone()
						if err := sys.VerifyCaches(); err != nil {
							t.Fatalf("walk %d step %d: after clone: %v", walk, step, err)
						}
					}
					sys.Apply(tr)
					if err := sys.VerifyCaches(); err != nil {
						t.Fatalf("walk %d step %d: after %s: %v", walk, step, tr.Key(), err)
					}
					if got, want := sys.Fingerprint(), sys.Clone().Fingerprint(); got != want {
						t.Fatalf("walk %d step %d: clone fingerprint diverges", walk, step)
					}
				}
			}
		})
	}
}
