// Scenario pinning: every registered scenario, buggy and repaired, under
// every Table 2 strategy column, at its default scale and at one other
// accepted scale, must build the same initial state and walk the same
// first 1 000 states to the same violations as recorded. A change to how
// a scenario is declared — its hosts, seeds, domain hints, properties or
// strategy wiring — shows here before it shows in a table.
package nice_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

var updateRegistryGolden = flag.Bool("update-registry-golden", false,
	"rewrite testdata/registry_golden.json from the current registry")

const registryGoldenPath = "testdata/registry_golden.json"

// registryRow is one golden row: the root state's fingerprint and what
// an unreduced sequential DFS capped at registryCap states explored.
type registryRow struct {
	Fingerprint  string `json:"fingerprint"`
	UniqueStates int64  `json:"unique_states"`
	Transitions  int64  `json:"transitions"`
	Violations   string `json:"violations_sha256"`
}

const registryCap = 1000

// registryCell is one (scenario, scale, variant, strategy) build.
type registryCell struct {
	name     string
	sc       scenarios.Scenario
	scale    int
	fixed    bool
	strategy string
}

// altScale is the largest accepted scale below the scenario's default,
// or 0 when it has no knob or none is accepted.
func altScale(sc scenarios.Scenario) int {
	if sc.ScaleName == "" {
		return 0
	}
	for s := sc.DefaultScale - 1; s >= 1; s-- {
		if _, _, err := sc.Resolve(s, "", false); err == nil {
			return s
		}
	}
	return 0
}

func registryCells() []registryCell {
	var cells []registryCell
	for _, sc := range scenarios.All() {
		scales := []int{0}
		if alt := altScale(sc); alt > 0 {
			scales = append(scales, alt)
		}
		variants := []bool{false}
		if _, _, err := sc.Resolve(0, "", true); err == nil {
			variants = append(variants, true)
		}
		for _, scale := range scales {
			for _, fixed := range variants {
				for _, strat := range scenarios.StrategyNames() {
					name := sc.Name
					if scale > 0 {
						name += fmt.Sprintf("@%d", scale)
					}
					if fixed {
						name += "/fixed"
					} else {
						name += "/buggy"
					}
					cells = append(cells, registryCell{name + "/" + strat, sc, scale, fixed, strat})
				}
			}
		}
	}
	return cells
}

func (c registryCell) build(t *testing.T) *core.Config {
	cfg, _, err := c.sc.Resolve(c.scale, c.strategy, c.fixed)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func (c registryCell) record(t *testing.T) registryRow {
	root := core.NewSystem(c.build(t)).Fingerprint().Hex()
	cfg := c.build(t)
	cfg.StopAtFirstViolation = false
	r := nice.Run(context.Background(), cfg, nice.WithMaxStates(registryCap))
	return registryRow{Fingerprint: root, UniqueStates: r.UniqueStates,
		Transitions: r.Transitions, Violations: violationsSHA256(r)}
}

func TestRegistryGolden(t *testing.T) {
	cells := registryCells()
	if *updateRegistryGolden {
		got := make(map[string]registryRow, len(cells))
		for _, c := range cells {
			got[c.name] = c.record(t)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(registryGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(registryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]registryRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", registryGoldenPath, err)
	}
	if len(want) != len(cells) {
		t.Errorf("%s holds %d rows, the registry builds %d cells", registryGoldenPath, len(want), len(cells))
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			row, ok := want[c.name]
			if !ok {
				t.Fatalf("no golden row; record one with -update-registry-golden")
			}
			if got := c.record(t); got != row {
				t.Errorf("scenario built or searched differently:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}
