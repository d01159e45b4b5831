// Decision pinning for dynamic partial-order reduction: the parity
// suite (dpor_parity_test.go) holds the reduced search to the unreduced
// verdict, which a change to the reduction's bookkeeping can keep while
// still deciding differently — one more backtrack point, one fewer
// sleep hit. This test pins the decisions themselves: on every
// registered scenario and on the benchmark's linear one-way shape, the
// sequential reduced search must reproduce the recorded counts of
// states, transitions, revisits and violations and the four dpor.*
// telemetry counters to the last digit.
package nice_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/scenarios"
	"github.com/nice-go/nice/topo"
)

var updateDPORGolden = flag.Bool("update-dpor-golden", false,
	"rewrite testdata/dpor_golden.json from the current reduction's decisions")

const dporGoldenPath = "testdata/dpor_golden.json"

// dporDecisions is one golden row: what the reduced search explored and
// how the reduction decided along the way.
type dporDecisions struct {
	UniqueStates        int64 `json:"unique_states"`
	Transitions         int64 `json:"transitions"`
	Revisits            int64 `json:"revisits"`
	Violations          int   `json:"violations"`
	SleepHits           int64 `json:"sleep_hits"`
	BacktrackPoints     int64 `json:"backtrack_points"`
	PrunedTransitions   int64 `json:"pruned_transitions"`
	RevisitReexpansions int64 `json:"revisit_reexpansions"`
}

// linearPings is the disjoint-flow family the reduction is measured on:
// n switches in a line with one host each, every host aimed at its
// neighbour (0↔1, 2↔3, …) with a one-ping budget, the repaired pyswitch,
// symbolic execution off. With oneWay only the even hosts send — the
// benchmark's dpor-linear shape; micro switches the checker to per-port
// switch transitions, whose finer footprints expose more independence.
func linearPings(n int, oneWay, micro bool) *nice.Config {
	t, _ := topo.LinearHosts(n, 1)
	all := t.Hosts()
	var hh []*hosts.Host
	for i, self := range all {
		j := i ^ 1
		if j >= len(all) {
			j = i - 1
		}
		budget := 1
		if oneWay {
			budget = 1 - i%2
		}
		seed := scenarios.PingBetween(self, all[j])
		h := hosts.NewClient(self, budget, 0, seed)
		h.Repertoire = append(h.Repertoire[:0], seed)
		hh = append(hh, h)
	}
	return &nice.Config{Topo: t, App: pyswitch.New(pyswitch.Fixed, t), Hosts: hh,
		Properties: []nice.Property{props.NewNoForgottenPackets()},
		DisableSE:  true, MicroSteps: micro}
}

func dporDecide(cfg *nice.Config) dporDecisions {
	cfg.StopAtFirstViolation = false
	reg := nice.NewTelemetry()
	r := nice.Run(context.Background(), cfg, nice.WithReduction(nice.DPOR),
		nice.WithMaxStates(60000), nice.WithTelemetry(reg))
	snap := reg.Snapshot()
	return dporDecisions{
		UniqueStates: r.UniqueStates, Transitions: r.Transitions,
		Revisits: r.Revisits, Violations: len(r.Violations),
		SleepHits:           snap.Counter("dpor.sleep_hits"),
		BacktrackPoints:     snap.Counter("dpor.backtrack_points"),
		PrunedTransitions:   snap.Counter("dpor.pruned_transitions"),
		RevisitReexpansions: snap.Counter("dpor.revisit_reexpansions"),
	}
}

func TestDPORDecisionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep under reduction is slow")
	}
	type workload struct {
		name  string
		build func() *nice.Config
	}
	var workloads []workload
	for _, sc := range scenarios.All() {
		sc := sc
		workloads = append(workloads, workload{sc.Name, func() *nice.Config { return sc.Config(0) }})
	}
	for _, n := range []int{4, 5} {
		n := n
		workloads = append(workloads, workload{fmt.Sprintf("linear%d-oneway", n),
			func() *nice.Config { return linearPings(n, true, false) }})
	}

	if *updateDPORGolden {
		got := make(map[string]dporDecisions, len(workloads))
		for _, w := range workloads {
			got[w.name] = dporDecide(w.build())
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dporGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	data, err := os.ReadFile(dporGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]dporDecisions
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", dporGoldenPath, err)
	}
	if len(want) != len(workloads) {
		t.Errorf("%s holds %d rows, the suite runs %d workloads", dporGoldenPath, len(want), len(workloads))
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			row, ok := want[w.name]
			if !ok {
				t.Fatalf("no golden row; record one with -update-dpor-golden")
			}
			if got := dporDecide(w.build()); got != row {
				t.Errorf("reduction decided differently:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}
