// The invariance contract: the machinery added for speed — the oracle
// or incremental state hash (§6), copy-on-write or deep-clone forking,
// the five engines, DPOR, warm or cold discover caches — never changes
// the verdict. One matrix states it: every registered scenario under
// PKT-SEQ and every Table 2 scenario under the other three strategy
// columns, each explored by a cold sequential reference and by knob
// cells through nice.Run, so the facade's engine inference is covered
// too. PKT-SEQ rows run every cell; the other columns run the warm
// DFS, parallel, deep-clone and DPOR cells (scenarios'
// TestFingerprintOracleParity holds the oracle hash there). Every
// exhaustive cell must report the reference's exact violations (the
// sha256 of the sorted property|error list); a walk cell a subset of
// them, identical across clone modes and swarm runs. Each row is
// explored once; TestInvarianceMatrix reports every check, and the knob
// tests (TestCOWDeepCloneParity and the rest of knobTests) report a
// knob's checks again under that knob's name.
package nice_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
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

// shortStates bounds the reference under -short: a row whose cold
// search reaches it is skipped.
const shortStates = 1000

// knob is one way of running a row's search besides the reference.
type knob struct {
	name         string
	engine       string // the engine nice.Run must infer
	cold         bool   // fresh caches, not the reference's warm ones
	oracle, deep bool   // core.WithOracleHash, core.WithDeepClone
	dpor         bool
	opts         []nice.RunOption
	twin         string // a cell whose counts and violations it reproduces
	// everyColumn runs the cell on the NO-DELAY, FLOW-IR and UNUSUAL rows
	// too: the plain engines, and the knobs with mutants those rows kill
	// (a FLOW-IR group the deep clone forgets, a host send's app read
	// DPOR drops). Every other cell runs under PKT-SEQ alone.
	everyColumn bool
}

func (k knob) walk() bool { return k.engine == "walks" || k.engine == "swarm" }

// knobs is every cell of a row, each after its twin. The first warm
// cell, "dfs", is the warm reference the warm counts compare against.
func knobs() []knob {
	ks := []knob{
		{name: "cold/oracle", engine: "dfs", cold: true, oracle: true},
		{name: "cold/dpor", engine: "dfs", cold: true, dpor: true},
		{name: "cold/concolic", engine: "concolic", cold: true,
			opts: []nice.RunOption{nice.WithWorkers(4), nice.WithSymWorkers(2)}},
	}
	for _, e := range []knob{
		{name: "dfs", engine: "dfs", everyColumn: true},
		{name: "parallel", engine: "parallel", opts: []nice.RunOption{nice.WithWorkers(4)}, everyColumn: true},
	} {
		seq := e.engine == "dfs"
		ks = append(ks, e,
			knob{name: e.name + "/oracle", engine: e.engine, oracle: true, opts: e.opts, twin: e.name},
			knob{name: e.name + "/deep", engine: e.engine, deep: true, opts: e.opts, everyColumn: seq},
			knob{name: e.name + "/dpor", engine: e.engine, dpor: true, opts: e.opts, everyColumn: seq})
	}
	walk := nice.WithWalks(11, 24, 60)
	walks, swarm := []nice.RunOption{walk}, []nice.RunOption{walk, nice.WithWorkers(2)}
	return append(ks,
		knob{name: "walks", engine: "walks", opts: walks},
		knob{name: "walks/deep", engine: "walks", deep: true, opts: walks, twin: "walks"},
		knob{name: "swarm", engine: "swarm", opts: swarm},
		knob{name: "swarm/again", engine: "swarm", opts: swarm, twin: "swarm"},
		knob{name: "swarm/deep", engine: "swarm", deep: true, opts: swarm, twin: "swarm"})
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
	// Each run explores afresh (-count=2 repeats the searches); the knob
	// tests after it report what it found.
	outcomesMu.Lock()
	clear(outcomes)
	outcomesMu.Unlock()
	for _, row := range matrixRows() {
		t.Run(row.sc.Name+"/"+row.strat.String(), func(t *testing.T) {
			t.Parallel()
			outcomeOf(row).report(t, nil)
		})
	}
}

// A knob test reports one knob's checks of the matrix again, on the rows
// and under the test names that knob's verdict has always had, so a
// failure also names the knob. TestInvarianceMatrix reports every check
// itself; a knob test adds a name, never coverage.
type knobTest struct {
	rows    func(matrixRow) bool
	byStrat bool // subtests are named scenario/STRATEGY, not scenario
	// subs maps a row's subtest name ("" for the row itself) to the checks
	// it reports: cell names, "registry", "root" and "replay/<engine>".
	subs map[string][]string
}

func pktSeq(row matrixRow) bool { return row.strat == scenarios.PktSeqOnly }
func table2(row matrixRow) bool { return row.table2 }

var knobTests = map[string]knobTest{
	"TestCOWDeepCloneParity": {rows: pktSeq, subs: map[string][]string{
		"SequentialDFS":  {"dfs/deep", "replay/dfs", "root"},
		"ParallelHybrid": {"parallel/deep", "replay/parallel"},
		"RandomWalks":    {"walks/deep", "replay/walks"},
		"SeededSwarm":    {"swarm/deep", "replay/swarm"},
	}},
	"TestDPORScenarioParity": {rows: pktSeq, subs: map[string][]string{
		"SequentialDFS":  {"cold/dpor", "dfs/dpor"},
		"ParallelHybrid": {"parallel/dpor"},
	}},
	"TestConcolicScenarioParity": {rows: pktSeq, subs: map[string][]string{"": {"cold/concolic"}}},
	"TestRunRegistryMatrixParity": {rows: table2, byStrat: true,
		subs: map[string][]string{"": {"dfs", "parallel", "registry"}}},
	"TestRunSwarmWarmParity": {rows: func(row matrixRow) bool { return table2(row) && pktSeq(row) },
		subs: map[string][]string{"": {"swarm", "swarm/again"}}},
}

func TestCOWDeepCloneParity(t *testing.T)      { runKnobTest(t) }
func TestDPORScenarioParity(t *testing.T)      { runKnobTest(t) }
func TestConcolicScenarioParity(t *testing.T)  { runKnobTest(t) }
func TestRunRegistryMatrixParity(t *testing.T) { runKnobTest(t) }
func TestRunSwarmWarmParity(t *testing.T)      { runKnobTest(t) }

// runKnobTest runs the knob test named like t: one parallel subtest per
// row and sub, each reporting its checks of the row's outcome.
func runKnobTest(t *testing.T) {
	kt := knobTests[t.Name()]
	for _, row := range matrixRows() {
		if !kt.rows(row) {
			continue
		}
		for sub, checks := range kt.subs {
			name := row.sc.Name
			if kt.byStrat {
				name += "/" + row.strat.String()
			}
			if sub != "" {
				name += "/" + sub
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				outcomeOf(row).report(t, checks)
			})
		}
	}
}

// rowOutcome is what checking a row found: the failures and notes of
// each check, or why the row was skipped. A row is checked by the first
// test that asks for it after TestInvarianceMatrix last started.
type rowOutcome struct {
	once  sync.Once
	skip  string
	fails map[string][]string
	notes map[string][]string
}

var (
	outcomesMu sync.Mutex
	outcomes   = make(map[string]*rowOutcome)
)

func outcomeOf(row matrixRow) *rowOutcome {
	key := row.sc.Name + "/" + row.strat.String()
	outcomesMu.Lock()
	o := outcomes[key]
	if o == nil {
		o = &rowOutcome{fails: make(map[string][]string), notes: make(map[string][]string)}
		outcomes[key] = o
	}
	outcomesMu.Unlock()
	o.once.Do(func() { row.check(o) })
	return o
}

func (o *rowOutcome) errorf(check, format string, args ...any) {
	o.fails[check] = append(o.fails[check], fmt.Sprintf(format, args...))
}

func (o *rowOutcome) logf(check, format string, args ...any) {
	o.notes[check] = append(o.notes[check], fmt.Sprintf(format, args...))
}

// report fails t with the failures of the given checks, all of them when
// checks is nil, in check order, after logging those checks' notes.
func (o *rowOutcome) report(t *testing.T, checks []string) {
	t.Helper()
	if o.skip != "" {
		t.Skip(o.skip)
	}
	mine := func(check string) bool { return checks == nil || slices.Contains(checks, check) }
	for _, check := range slices.Sorted(maps.Keys(o.notes)) {
		if mine(check) {
			for _, msg := range o.notes[check] {
				t.Logf("%s: %s", check, msg)
			}
		}
	}
	for _, check := range slices.Sorted(maps.Keys(o.fails)) {
		if mine(check) {
			for _, msg := range o.fails[check] {
				t.Errorf("%s: %s", check, msg)
			}
		}
	}
}

func (row matrixRow) build(oracle, deep bool) *nice.Config {
	cfg := row.sc.Apply(row.sc.Config(parityScales[row.sc.Name]), row.strat)
	cfg.StopAtFirstViolation = false
	if oracle {
		cfg = core.WithOracleHash(cfg)
	}
	if deep {
		cfg = core.WithDeepClone(cfg)
	}
	return cfg
}

// finds reports whether a sorted key list holds a violation of prop.
func finds(keys []string, prop string) bool {
	return slices.ContainsFunc(keys, func(k string) bool { return strings.HasPrefix(k, prop+"|") })
}

// check explores the row with the reference and every cell, recording
// each failure under its check: the cell's name, "reference" for the
// reference's own traces, "registry" for the expected-violation matrix,
// "root" for the clone modes' root fingerprints and "replay/<engine>"
// for the clone modes' replays of an engine's traces.
func (row matrixRow) check(o *rowOutcome) {
	ctx := context.Background()
	cc := nice.NewCaches()
	refOpts := []nice.RunOption{nice.WithCaches(cc)}
	if testing.Short() {
		refOpts = append(refOpts, nice.WithMaxStates(shortStates))
	}
	ref := nice.Run(ctx, row.build(false, false), refOpts...)
	if testing.Short() && ref.StopReason == nice.StopMaxStates {
		o.skip = fmt.Sprintf("cold reference reaches %d states", shortStates)
		return
	}
	refClasses, refClassCount := cc.DiscoveredClasses(), cc.Classes()
	refKeys, refSum := violationKeys(ref), violationsSHA256(ref)
	found := finds(refKeys, row.sc.ExpectedProperty)
	if row.table2 && found == row.sc.Misses[row.strat] {
		o.errorf("registry", "expected property %q found=%v, registry expects miss=%v",
			row.sc.ExpectedProperty, found, row.sc.Misses[row.strat])
	}
	cow, deep := row.build(false, false), row.build(false, true)
	for _, v := range ref.Violations {
		_, got := core.NewCheckerWith(cow, nice.NewCaches()).ReplayWithProperties(v.Trace)
		if want := v.Property + "|" + v.Err.Error(); got == nil || got.Property+"|"+got.Err.Error() != want {
			o.errorf("reference", "reference trace of %s does not replay to it: got %v", want, got)
		}
	}
	if core.NewSystemWith(cow, cc).Fingerprint() != core.NewSystemWith(deep, cc).Fingerprint() {
		o.errorf("root", "root fingerprints differ between clone modes")
	}

	reports := make(map[string]*nice.Report)
	for _, k := range knobs() {
		if !k.everyColumn && row.strat != scenarios.PktSeqOnly {
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
		r := nice.Run(ctx, row.build(k.oracle, k.deep), opts...)
		reports[k.name] = r
		if r.Strategy != k.engine {
			o.errorf(k.name, "engine %q, want %q", r.Strategy, k.engine)
		}
		if !r.Complete || r.StopReason != nice.StopNone {
			o.errorf(k.name, "report partial (stop %q)", r.StopReason)
		}

		keys := violationKeys(r)
		if k.walk() {
			for _, key := range keys {
				if _, ok := slices.BinarySearch(refKeys, key); !ok {
					o.errorf(k.name, "violation %s is not the reference's", key)
				}
			}
		} else if violationsSHA256(r) != refSum {
			o.errorf(k.name, "violations %v != reference %v", keys, refKeys)
		}
		if tw := reports[k.twin]; tw != nil {
			sameCounts(o, k.name, "vs "+k.twin, r, tw, k.oracle)
			if !slices.Equal(keys, violationKeys(tw)) {
				o.errorf(k.name, "violations %v != %s's %v", keys, k.twin, violationKeys(tw))
			}
		}

		switch warm := reports["dfs"]; {
		case k.cold && k.oracle:
			sameCounts(o, k.name, "vs reference", r, ref, true)
		case k.cold && k.dpor:
			// Cold, state identity depends on which discover results
			// the memo already holds, so a reduced search may explore
			// more states than the unreduced one.
			o.logf(k.name, "states %d -> %d", ref.UniqueStates, r.UniqueStates)
		case k.engine == "concolic":
			// Proactive targets reach handlers eager discovery never
			// triggers, so wherever symbolic execution runs at all the
			// loop's class inventory is a strict superset.
			classes := caches.DiscoveredClasses()
			for class := range refClasses {
				if !classes[class] {
					o.errorf(k.name, "reference class missing from its inventory: %s", class)
				}
			}
			if n := caches.Classes(); refClassCount > 0 && n <= refClassCount {
				o.errorf(k.name, "discovered no more classes than the reference: %d <= %d", n, refClassCount)
			}
			o.logf(k.name, "classes %d -> %d", refClassCount, caches.Classes())
			if found && !finds(keys, row.sc.ExpectedProperty) {
				o.errorf(k.name, "missed expected violation %q", row.sc.ExpectedProperty)
			}
		case k.dpor:
			if r.UniqueStates > warm.UniqueStates {
				o.errorf(k.name, "explored %d states, the unreduced search %d", r.UniqueStates, warm.UniqueStates)
			}
		case !k.walk():
			sameCounts(o, k.name, "vs dfs", r, warm, false)
		}

		if k.cold {
			continue
		}
		for i, v := range r.Violations {
			sysC, _ := core.NewCheckerWith(cow, cc).Replay(v.Trace)
			sysD, _ := core.NewCheckerWith(deep, cc).Replay(v.Trace)
			if sysC.Fingerprint() != sysD.Fingerprint() || sysC.OracleKey() != sysD.OracleKey() {
				o.errorf("replay/"+k.engine, "%s: violation %d replays to different states under COW and deep clone", k.name, i)
			}
		}
	}
}

// sameCounts records a failure of check unless r explored exactly what
// want did: unique states and transitions, and with all also revisits
// and truncated paths.
func sameCounts(o *rowOutcome, check, vs string, r, want *nice.Report, all bool) {
	if r.UniqueStates != want.UniqueStates || r.Transitions != want.Transitions ||
		all && (r.Revisits != want.Revisits || r.Truncated != want.Truncated) {
		o.errorf(check, "states/trans/revisits/trunc %d/%d/%d/%d %s %d/%d/%d/%d",
			r.UniqueStates, r.Transitions, r.Revisits, r.Truncated, vs,
			want.UniqueStates, want.Transitions, want.Revisits, want.Truncated)
	}
}
