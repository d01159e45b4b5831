package scenarios

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/apps/energyte"
)

// TestTable2StrategyMatrix reproduces the paper's Table 2 strategy
// miss-matrix, driven entirely by the scenario registry: each bug
// scenario carries its expected property and per-strategy misses (see
// registry.go's Table 2 rows for the deviation discussion).
func TestTable2StrategyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("strategy matrix is slow")
	}
	for _, sc := range Table2() {
		for _, s := range Strategies {
			sc, s := sc, s
			t.Run(sc.Name+"/"+s.String(), func(t *testing.T) {
				t.Parallel()
				cfg := sc.Apply(sc.Config(0), s)
				report := dfs(cfg)
				found := report.FirstViolation() != nil
				wantMiss := sc.Misses[s]
				if found && wantMiss {
					t.Errorf("%s with %s: expected miss, but found %s after %d transitions",
						sc.Name, s, report.FirstViolation().Property, report.Transitions)
				}
				if !found && !wantMiss {
					t.Errorf("%s with %s: expected to find the bug, missed it after %d transitions",
						sc.Name, s, report.Transitions)
				}
				if found {
					v := report.FirstViolation()
					if v.Property != sc.ExpectedProperty {
						t.Errorf("%s with %s: wrong property %s (want %s)", sc.Name, s, v.Property, sc.ExpectedProperty)
					}
					t.Logf("%s %s: %d transitions / %v", sc.Name, s, report.Transitions, report.Elapsed)
				}
			})
		}
	}
}

// TestBarrierFixForBugIX checks the paper's alternative BUG-IX remedy:
// instead of handling packets at intermediate switches, the controller
// holds the triggering packet at the ingress until barriers confirm the
// whole path is installed (§8.3). The intermediate-switch ignore is
// still present (fix level FixVIII), yet no packet is ever forgotten.
func TestBarrierFixForBugIX(t *testing.T) {
	cfg := MustLookup("bug-ix").Config(0)
	barrierApp := energyte.New(energyte.FixVIII, cfg.Topo, TEThreshold, 0)
	barrierApp.UseBarriers = true
	cfg.App = barrierApp
	report := dfs(cfg)
	if v := report.FirstViolation(); v != nil {
		t.Fatalf("barrier variant still violates: %v\n%s", v.Err, v)
	}
	t.Logf("barrier variant clean over %d transitions / %d states", report.Transitions, report.UniqueStates)

	// Sanity: under UNUSUAL (which hunts exactly this race) it is
	// still clean.
	cfg2 := MustLookup("bug-ix").Config(0)
	barrierApp2 := energyte.New(energyte.FixVIII, cfg2.Topo, TEThreshold, 0)
	barrierApp2.UseBarriers = true
	cfg2.App = barrierApp2
	cfg2.Unusual = true
	if v := dfs(cfg2).FirstViolation(); v != nil {
		t.Fatalf("barrier variant violates under UNUSUAL: %v", v.Err)
	}
}

func TestFixedAppsAreClean(t *testing.T) {
	for _, sc := range Table2() {
		if sc.Name == "bug-i" {
			// BUG-I's published remedy (a hard timeout) only bounds
			// the outage; strict NoBlackHoles still flags the
			// transient loss, as §8.1 discusses. Covered by
			// TestBugIFixedRecovers in pyswitch_test.go.
			continue
		}
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			t.Parallel()
			report := dfs(sc.FixedConfig(0))
			if v := report.FirstViolation(); v != nil {
				t.Fatalf("fixed app still violates %s: %v\ntrace:\n%s", v.Property, v.Err, v)
			}
			t.Logf("%s fixed: clean over %d transitions / %d states", sc.Name, report.Transitions, report.UniqueStates)
		})
	}
}
