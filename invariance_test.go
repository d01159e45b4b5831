// The invariance contract: the machinery added for speed — the five
// engines, DPOR, warm or cold discover caches — never changes the
// verdict. One matrix states it: every registered scenario under
// PKT-SEQ and every Table 2 scenario under the other three strategy
// columns, each explored by a cold sequential search and by knob cells
// through nice.Run, so the facade's engine inference is covered too.
// PKT-SEQ rows run every cell; the other columns run the warm DFS,
// parallel and DFS-under-DPOR cells. Every exhaustive cell must report
// the cold search's exact violations (the sha256 of the sorted
// property|error list); a walk cell a subset of them, identical across
// swarm runs. Each check is the subtest
// TestInvarianceMatrix/<scenario>/<STRATEGY>/<check>; the knob tests
// (TestDPORScenarioParity and the three after it) run one knob's checks
// again under the names that knob's verdict has always had. The
// reference the warm counts are held to is reftest.Explore, which
// shares no forking or hashing with the engines: TestCOWDeepCloneParity
// here and scenarios' TestFingerprintOracleParity compare against it.
package nice_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/reftest"
	"github.com/nice-go/nice/scenarios"
)

// violationKeys lists a report's violations as sorted property|error
// keys.
func violationKeys(r *nice.Report) []string {
	keys := make([]string, len(r.Violations))
	for i, v := range r.Violations {
		keys[i] = v.Property + "|" + v.Err.Error()
	}
	sort.Strings(keys)
	return keys
}

// violationsSHA256 is the hex sha256 of violationKeys, one key a line.
func violationsSHA256(r *nice.Report) string {
	sum := sha256.Sum256([]byte(strings.Join(violationKeys(r), "\n")))
	return hex.EncodeToString(sum[:])
}

// parityScales overrides the scale where a scenario's default full
// search (early stop off) is too large for a matrix row; the knobs are
// scale-independent, so a bounded instance proves the same invariance.
var parityScales = map[string]int{
	"pyswitch-fattree": 2, // k=4's full flooding search runs for minutes
}

// shortStates bounds the cold search under -short: a row that reaches
// it is skipped.
const shortStates = 1000

// knob is one way of running a row's search besides the cold one.
type knob struct {
	name   string
	engine string // the engine nice.Run must infer
	cold   bool   // fresh caches, not the cold search's warm ones
	dpor   bool
	opts   []nice.RunOption
	twin   string // a cell whose counts and violations it reproduces
	// everyColumn runs the cell on the NO-DELAY, FLOW-IR and UNUSUAL rows
	// too: the plain engines, and DPOR on the DFS, whose mutants those
	// rows kill (a host send's app read DPOR drops). Every other cell
	// runs under PKT-SEQ alone.
	everyColumn bool
}

func (k knob) walk() bool { return k.engine == "walks" || k.engine == "swarm" }

// knobs is every cell of a row, each after its twin. The first warm
// cell, "dfs", is the warm reference the warm counts compare against.
func knobs() []knob {
	par := []nice.RunOption{nice.WithWorkers(4)}
	walk := nice.WithWalks(11, 24, 60)
	walks, swarm := []nice.RunOption{walk}, []nice.RunOption{walk, nice.WithWorkers(2)}
	return []knob{
		{name: "cold/dpor", engine: "dfs", cold: true, dpor: true},
		{name: "cold/concolic", engine: "concolic", cold: true,
			opts: []nice.RunOption{nice.WithWorkers(4), nice.WithSymWorkers(2)}},
		{name: "dfs", engine: "dfs", everyColumn: true},
		{name: "dfs/dpor", engine: "dfs", dpor: true, everyColumn: true},
		{name: "parallel", engine: "parallel", opts: par, everyColumn: true},
		// The pool-size case: DPOR on four workers is the DPOR DFS.
		{name: "parallel/dpor", engine: "dfs", dpor: true, opts: par, twin: "dfs/dpor"},
		{name: "walks", engine: "walks", opts: walks},
		{name: "swarm", engine: "swarm", opts: swarm},
		{name: "swarm/again", engine: "swarm", opts: swarm, twin: "swarm"},
	}
}

// matrixRow is one scenario under one Table 2 strategy column; table2
// says the registry's expected-violation matrix covers it.
type matrixRow struct {
	sc     scenarios.Scenario
	strat  scenarios.Strategy
	table2 bool
}

func matrixRows() []matrixRow {
	table2 := make(map[string]bool)
	for _, sc := range scenarios.Table2() {
		table2[sc.Name] = true
	}
	var rows []matrixRow
	for _, sc := range scenarios.All() {
		strats := scenarios.Strategies[:1]
		if table2[sc.Name] {
			strats = scenarios.Strategies
		}
		for _, strat := range strats {
			rows = append(rows, matrixRow{sc, strat, table2[sc.Name]})
		}
	}
	return rows
}

func TestInvarianceMatrix(t *testing.T) {
	if n := len(scenarios.All()); n < 19 {
		t.Fatalf("registry holds %d scenarios, expected at least 19", n)
	}
	for _, row := range matrixRows() {
		t.Run(row.sc.Name+"/"+row.strat.String(), func(t *testing.T) {
			t.Parallel()
			row.check(t, func(string) bool { return true })
		})
	}
}

func pktSeq(row matrixRow) bool { return row.strat == scenarios.PktSeqOnly }
func table2(row matrixRow) bool { return row.table2 }

func TestDPORScenarioParity(t *testing.T) {
	runKnob(t, pktSeq, false, map[string][]string{
		"SequentialDFS":  {"cold/dpor", "dfs/dpor"},
		"ParallelHybrid": {"parallel/dpor"},
	})
}

func TestConcolicScenarioParity(t *testing.T) {
	runKnob(t, pktSeq, false, map[string][]string{"": {"cold/concolic"}})
}

func TestRunRegistryMatrixParity(t *testing.T) {
	runKnob(t, table2, true, map[string][]string{"": {"dfs", "parallel", "registry"}})
}

func TestRunSwarmWarmParity(t *testing.T) {
	runKnob(t, func(row matrixRow) bool { return table2(row) && pktSeq(row) }, false,
		map[string][]string{"": {"swarm", "swarm/again"}})
}

// runKnob runs a knob test: one parallel subtest per selected row and
// entry of subs, named scenario[/STRATEGY][/sub], that checks the row
// afresh with the entry's checks alone.
func runKnob(t *testing.T, rows func(matrixRow) bool, byStrat bool, subs map[string][]string) {
	for _, row := range matrixRows() {
		if !rows(row) {
			continue
		}
		for sub, checks := range subs {
			name := row.sc.Name
			if byStrat {
				name += "/" + row.strat.String()
			}
			if sub != "" {
				name += "/" + sub
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				row.check(t, func(check string) bool { return slices.Contains(checks, check) })
			})
		}
	}
}

func (row matrixRow) build() *nice.Config {
	cfg := row.sc.Apply(row.sc.Config(parityScales[row.sc.Name]), row.strat)
	cfg.StopAtFirstViolation = false
	return cfg
}

// finds reports whether a sorted key list holds a violation of prop.
func finds(keys []string, prop string) bool {
	return slices.ContainsFunc(keys, func(k string) bool { return strings.HasPrefix(k, prop+"|") })
}

// check explores the row cold, then runs each check that sel selects as
// a subtest of t, in order: "registry" holds the cold search to the
// expected-violation matrix, "replay" replays its traces, and each cell
// is named after its knob. The cells share the cold search's caches,
// warm after it. A cell sel leaves out runs only when a selected cell
// compares against it: its twin, or the warm "dfs".
func (row matrixRow) check(t *testing.T, sel func(check string) bool) {
	ctx := context.Background()
	cc := nice.NewCaches()
	refOpts := []nice.RunOption{nice.WithCaches(cc)}
	if testing.Short() {
		refOpts = append(refOpts, nice.WithMaxStates(shortStates))
	}
	ref := nice.Run(ctx, row.build(), refOpts...)
	if testing.Short() && ref.StopReason == nice.StopMaxStates {
		t.Skipf("cold search reaches %d states", shortStates)
	}
	refClasses, refClassCount := cc.DiscoveredClasses(), cc.Classes()
	refKeys, refSum := violationKeys(ref), violationsSHA256(ref)
	found := finds(refKeys, row.sc.ExpectedProperty)
	if row.table2 && sel("registry") {
		t.Run("registry", func(t *testing.T) {
			if found == row.sc.Misses[row.strat] {
				t.Errorf("expected property %q found=%v, registry expects miss=%v",
					row.sc.ExpectedProperty, found, row.sc.Misses[row.strat])
			}
		})
	}
	if sel("replay") {
		t.Run("replay", func(t *testing.T) {
			for _, v := range ref.Violations {
				got := core.ReplayWithProperties(row.build(), nice.NewCaches(), v.Trace)
				if want := v.Property + "|" + v.Err.Error(); got == nil || got.Property+"|"+got.Err.Error() != want {
					t.Errorf("trace of %s does not replay to it: got %v", want, got)
				}
			}
		})
	}

	run := make(map[string]bool)
	for _, k := range knobs() {
		if sel(k.name) {
			run[k.name], run[k.twin] = true, true
			run["dfs"] = run["dfs"] || !k.cold && !k.walk()
		}
	}
	reports := make(map[string]*nice.Report)
	for _, k := range knobs() {
		if !run[k.name] || !k.everyColumn && row.strat != scenarios.PktSeqOnly {
			continue
		}
		caches := cc
		if k.cold {
			caches = nice.NewCaches()
		}
		opts := append([]nice.RunOption{nice.WithCaches(caches)}, k.opts...)
		if k.dpor {
			opts = append(opts, nice.WithReduction(nice.DPOR))
		}
		r := nice.Run(ctx, row.build(), opts...)
		reports[k.name] = r
		if !sel(k.name) {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			if r.Strategy != k.engine {
				t.Errorf("engine %q, want %q", r.Strategy, k.engine)
			}
			if !r.Complete || r.StopReason != nice.StopNone {
				t.Errorf("report partial (stop %q)", r.StopReason)
			}
			keys := violationKeys(r)
			if k.walk() {
				for _, key := range keys {
					if _, ok := slices.BinarySearch(refKeys, key); !ok {
						t.Errorf("violation %s is not the cold search's", key)
					}
				}
			} else if violationsSHA256(r) != refSum {
				t.Errorf("violations %v != cold search's %v", keys, refKeys)
			}
			if tw := reports[k.twin]; tw != nil {
				sameCounts(t, "vs "+k.twin, r, tw)
				if !slices.Equal(keys, violationKeys(tw)) {
					t.Errorf("violations %v != %s's %v", keys, k.twin, violationKeys(tw))
				}
			}

			switch warm := reports["dfs"]; {
			case k.cold && k.dpor:
				// Cold, state identity depends on which discover results
				// the memo already holds, so a reduced search may explore
				// more states than the unreduced one.
				t.Logf("states %d -> %d", ref.UniqueStates, r.UniqueStates)
			case k.engine == "concolic":
				// Proactive targets reach handlers eager discovery never
				// triggers, so wherever symbolic execution runs at all the
				// loop's class inventory is a strict superset.
				classes := caches.DiscoveredClasses()
				for class := range refClasses {
					if !classes[class] {
						t.Errorf("cold search's class missing from its inventory: %s", class)
					}
				}
				if n := caches.Classes(); refClassCount > 0 && n <= refClassCount {
					t.Errorf("discovered no more classes than the cold search: %d <= %d", n, refClassCount)
				}
				t.Logf("classes %d -> %d", refClassCount, caches.Classes())
				if found && !finds(keys, row.sc.ExpectedProperty) {
					t.Errorf("missed expected violation %q", row.sc.ExpectedProperty)
				}
			case k.dpor:
				if r.UniqueStates > warm.UniqueStates {
					t.Errorf("explored %d states, the unreduced search %d", r.UniqueStates, warm.UniqueStates)
				}
			case !k.walk():
				sameCounts(t, "vs dfs", r, warm)
			}
		})
	}
}

// sameCounts fails t unless r explored exactly the unique states and
// transitions want did.
func sameCounts(t *testing.T, vs string, r, want *nice.Report) {
	t.Helper()
	if r.UniqueStates != want.UniqueStates || r.Transitions != want.Transitions {
		t.Errorf("states/trans %d/%d %s %d/%d", r.UniqueStates, r.Transitions, vs, want.UniqueStates, want.Transitions)
	}
}

// TestCOWDeepCloneParity holds the copy-on-write engines to a search
// that shares nothing between states: reftest.Explore builds every
// state afresh by replaying its trace from the initial one. On every
// registered scenario under PKT-SEQ, on caches warmed until a DFS
// discovers nothing new, the sequential DFS and the 4-worker parallel
// search must report the reference's exact unique states, transitions,
// revisits, truncated paths and violation keys, and every violation the
// random walks and the seeded swarm report must be one of the
// reference's and replay from the initial state to itself. (Table 2
// under the other columns is scenarios' TestFingerprintOracleParity.)
// Every engine runs on one Config, and a copy never writes what it
// copies, so afterwards the Config's prototypes must be as they were.
func TestCOWDeepCloneParity(t *testing.T) {
	ctx := context.Background()
	walk := nice.WithWalks(11, 24, 60)
	for _, row := range matrixRows() {
		if !pktSeq(row) {
			continue
		}
		t.Run(row.sc.Name, func(t *testing.T) {
			t.Parallel()
			cfg, cc := row.build(), nice.NewCaches()
			proto := prototypeState(cfg)
			if testing.Short() {
				if r := nice.Run(ctx, cfg, nice.WithCaches(cc), nice.WithMaxStates(shortStates)); r.StopReason == nice.StopMaxStates {
					t.Skipf("search reaches %d states", shortStates)
				}
			}
			var dfs *nice.Report
			for n := int64(-1); n != cc.SERuns(); {
				n = cc.SERuns()
				dfs = nice.Run(ctx, cfg, nice.WithCaches(cc))
			}
			ref := reftest.Explore(cfg, cc)
			want := reftest.Summary(ref)
			t.Log("reference:", want)
			exhaustive := func(r *nice.Report) func(*testing.T) {
				return func(t *testing.T) {
					if got := reftest.Summary(r); got != want {
						t.Errorf("%s; reference: %s", got, want)
					}
				}
			}
			t.Run("SequentialDFS", exhaustive(dfs))
			t.Run("ParallelHybrid", exhaustive(nice.Run(ctx, cfg, nice.WithCaches(cc), nice.WithWorkers(4))))
			refKeys := violationKeys(ref)
			walked := func(opts ...nice.RunOption) func(*testing.T) {
				r := nice.Run(ctx, cfg, append(opts, nice.WithCaches(cc))...)
				return func(t *testing.T) {
					for _, v := range r.Violations {
						key := v.Property + "|" + v.Err.Error()
						if _, ok := slices.BinarySearch(refKeys, key); !ok {
							t.Errorf("violation %s is not the reference's", key)
						}
						if got := core.ReplayWithProperties(cfg, cc, v.Trace); got == nil || got.Property+"|"+got.Err.Error() != key {
							t.Errorf("trace of %s does not replay to it: got %v", key, got)
						}
					}
				}
			}
			t.Run("RandomWalks", walked(walk))
			t.Run("SeededSwarm", walked(walk, nice.WithWorkers(2)))
			t.Run("PrototypeFrozen", func(t *testing.T) {
				if got := prototypeState(cfg); !slices.Equal(got, proto) {
					t.Errorf("the searches wrote the Config's prototypes:\n%s\nwas\n%s",
						strings.Join(got, "\n"), strings.Join(proto, "\n"))
				}
			})
		})
	}
}

// prototypeState renders a Config's prototypes: the StateKey of the app,
// of every host and of every property, with the version of the app and
// of each property that reports one.
func prototypeState(cfg *nice.Config) []string {
	version := func(x any) string {
		if v, ok := x.(interface{ StateVersion() uint64 }); ok {
			return fmt.Sprintf("v%d ", v.StateVersion())
		}
		return ""
	}
	out := []string{"app " + version(cfg.App) + cfg.App.StateKey()}
	for _, h := range cfg.Hosts {
		out = append(out, "host "+h.StateKey())
	}
	for _, p := range cfg.Properties {
		out = append(out, p.Name()+" "+version(p)+p.StateKey())
	}
	return out
}
