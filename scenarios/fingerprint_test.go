package scenarios_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/reftest"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/scenarios"
)

// TestFingerprintOracleParity holds the production engines, which name
// states by Fingerprint, to reftest.Explore, which names them by
// OracleKey and forks nothing: on every Table 2 scenario and on
// pingpong at scales 1 and 2, under every strategy column, the
// sequential DFS and the 4-worker parallel search must report the
// reference's unique states,
// transitions, revisits, truncated paths and violation keys exactly.
// All three run on one discover-cache set, warmed until a DFS run
// discovers nothing new: cache presence is part of state identity, so
// only warm counts are schedule-independent.
func TestFingerprintOracleParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 2 sweep")
	}
	rows := make(map[string]func(scenarios.Strategy) *core.Config)
	for _, sc := range scenarios.Table2() {
		rows[strings.ToUpper(sc.Name)] = func(s scenarios.Strategy) *core.Config { return sc.Apply(sc.Config(0), s) }
	}
	ping := scenarios.MustLookup("pingpong")
	for _, scale := range []int{1, 2} {
		rows[fmt.Sprintf("PINGPONG-%d", scale)] = func(s scenarios.Strategy) *core.Config { return ping.Apply(ping.Config(scale), s) }
	}
	ctx := context.Background()
	for name, build := range rows {
		for _, s := range scenarios.Strategies {
			t.Run(name+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				cfg := build(s)
				cfg.StopAtFirstViolation = false
				cc := core.NewCaches()
				var dfs *core.Report
				for n := int64(-1); n != cc.SERuns(); {
					n = cc.SERuns()
					dfs = search.DFS().Search(ctx, cfg, core.EngineOptions{Caches: cc})
				}
				par := search.Parallel().Search(ctx, cfg, core.EngineOptions{Caches: cc, Workers: 4})
				want := reftest.Summary(reftest.Explore(cfg, cc))
				t.Log("reference:", want)
				for name, rep := range map[string]*core.Report{"dfs": dfs, "parallel": par} {
					if got := reftest.Summary(rep); got != want {
						t.Errorf("%s: %s; reference: %s", name, got, want)
					}
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
