// Decision pinning for dynamic partial-order reduction: the invariance
// matrix (invariance_test.go) holds the reduced search to the unreduced
// verdict, which a change to the reduction's bookkeeping can keep while
// still deciding differently — one more backtrack point, one fewer
// sleep hit. TestDPORDecisionsGolden pins the decisions themselves: on
// every registered scenario and on the benchmark's linear one-way
// shape, the sequential reduced search must reproduce the recorded
// counts of states, transitions, revisits and violations and the four
// dpor.* telemetry counters to the last digit.
//
// TestDPORReductionFloor then holds the reduction to its purpose on the
// disjoint-flow shapes it is built for: the same verdict from at most
// 70 % of the unreduced search's unique states — a within-run ratio of
// two counts, so it needs neither a clock nor a recorded baseline.
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

// dporCaps bounds a golden row's search below the default 60 000
// states where the smaller cap pins the same decisions: the fat tree's
// reduction takes no sleep hit and prunes nothing at either cap.
var dporCaps = map[string]int64{"pyswitch-fattree": 5000}

func dporDecide(cfg *nice.Config, maxStates int64) dporDecisions {
	if maxStates == 0 {
		maxStates = 60000
	}
	cfg.StopAtFirstViolation = false
	reg := nice.NewTelemetry()
	r := nice.Run(context.Background(), cfg, nice.WithReduction(nice.DPOR),
		nice.WithMaxStates(maxStates), nice.WithTelemetry(reg))
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
			got[w.name] = dporDecide(w.build(), dporCaps[w.name])
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
			if got := dporDecide(w.build(), dporCaps[w.name]); got != row {
				t.Errorf("reduction decided differently:\n got  %+v\n want %+v", got, row)
			}
		})
	}
}

func TestDPORReductionFloor(t *testing.T) {
	for _, shape := range []struct {
		name          string
		n             int
		oneWay, micro bool
	}{
		{name: "linear4-oneway", n: 4, oneWay: true},
		{name: "linear3-pairs", n: 3},
		{name: "linear3-pairs-micro", n: 3, micro: true},
	} {
		t.Run(shape.name, func(t *testing.T) {
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
			if violationsSHA256(full) != violationsSHA256(red) {
				t.Errorf("DPOR violations %v != unreduced %v", violationKeys(red), violationKeys(full))
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

// TestDPORReclaims: the reduced DFS forks each backtrack successor by
// lending and gives the fork back by reclaiming, like the unreduced
// DFS, so the shells a successor copied are recycled and no fork
// outlives its subtree.
func TestDPORReclaims(t *testing.T) {
	reg := nice.NewTelemetry()
	nice.Run(context.Background(), linearPings(4, true, false),
		nice.WithReduction(nice.DPOR), nice.WithTelemetry(reg))
	snap := reg.Snapshot()
	forks, releases := snap.Counter("cow.forks"), snap.Counter("cow.releases")
	if snap.Counter("cow.shells_recycled") == 0 || forks == 0 || forks != releases {
		t.Errorf("cow.shells_recycled %d, cow.forks %d, cow.releases %d; want shells recycled and every fork given back",
			snap.Counter("cow.shells_recycled"), forks, releases)
	}
}
