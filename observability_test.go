// Tests for the observability surface: Observer delivery ordering under
// the parallel engine, the telemetry registry's integration with every
// engine, campaign-level aggregation, and discover-cache pruning.
package nice_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/scenarios"
)

// orderingObserver records every callback in arrival order, under one
// mutex, so the test can assert global delivery ordering.
type orderingObserver struct {
	streamCollector
	events []string // "violation" / "progress" / "final", in order
}

func (o *orderingObserver) OnViolation(v nice.Violation) {
	o.mu.Lock()
	o.violations = append(o.violations, v)
	o.events = append(o.events, "violation")
	o.mu.Unlock()
}

func (o *orderingObserver) OnProgress(p nice.Progress) {
	o.mu.Lock()
	o.progress = append(o.progress, p)
	if p.Final {
		o.events = append(o.events, "final")
	} else {
		o.events = append(o.events, "progress")
	}
	o.mu.Unlock()
}

// TestObserverOrderingParallel: under the parallel engine (run with
// -race in CI), the Final=true snapshot is delivered exactly once, after
// every violation and every periodic snapshot, and carries the closing
// report totals — nothing fires after Run returns.
func TestObserverOrderingParallel(t *testing.T) {
	build := func() *nice.Config {
		cfg := scenarios.MustLookup("pyswitch-bench").Config(3)
		return cfg // full search: violations stream while workers race
	}
	obs := &orderingObserver{}
	report := nice.Run(context.Background(), build(),
		nice.WithWorkers(4),
		nice.WithObserver(obs),
		nice.WithProgressEvery(time.Millisecond))

	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.events) == 0 {
		t.Fatal("no observer callbacks at all")
	}
	var finals int
	for i, ev := range obs.events {
		if ev == "final" {
			finals++
			if i != len(obs.events)-1 {
				t.Errorf("final snapshot was event %d of %d — callbacks fired after it",
					i+1, len(obs.events))
			}
		}
	}
	if finals != 1 {
		t.Fatalf("%d final snapshots, want exactly 1", finals)
	}
	if len(obs.violations) < len(report.Violations) {
		t.Errorf("streamed %d violations, report has %d",
			len(obs.violations), len(report.Violations))
	}
	last := obs.progress[len(obs.progress)-1]
	if !last.Final {
		t.Error("last recorded progress snapshot is not the final one")
	}
	if last.Transitions != report.Transitions || last.UniqueStates != report.UniqueStates {
		t.Errorf("final snapshot %d/%d != report %d/%d",
			last.Transitions, last.UniqueStates, report.Transitions, report.UniqueStates)
	}
	if last.PeakHeapInUse == 0 {
		t.Error("final snapshot carries no PeakHeapInUse sample")
	}
}

// TestTelemetryAcrossEngines is the one engine contract, driven by the
// registry: whichever engine runs, a search is Begin → explore → End on
// a core.Session, so every registered engine must deliver the same
// guarantees — on an all-violations search with several violations:
//
//   - exactly one Final progress snapshot, delivered last, carrying the
//     Report's counters;
//   - <Strategy>.transitions/unique_states/violations equal to the
//     Report, a populated depth histogram, COW and discover-cache counts;
//   - a trace ring that starts on search-start and ends on search-stop;
//   - Report.Violations sorted by (property, error), every trace
//     replaying to its property;
//   - and, across the three exhaustive engines, the identical ordered
//     property|error list — a violation is a fact of the model, not of
//     the engine that found it.
func TestTelemetryAcrossEngines(t *testing.T) {
	build := func() *nice.Config { return scenarios.MustLookup("loadbalancer-bench").Config(3) }
	exhaustive := map[string][]string{"dfs": nil, "parallel": nil, "concolic": nil}
	for _, spec := range nice.EngineSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			reg := nice.NewTelemetry()
			obs := &orderingObserver{}
			report := nice.Run(context.Background(), build(),
				nice.WithEngine(spec.New()), nice.WithWorkers(4), nice.WithWalks(7, 50, 60),
				nice.WithTelemetry(reg), nice.WithObserver(obs), nice.WithProgressEvery(time.Millisecond))
			if report.Strategy != spec.Name {
				t.Fatalf("Report.Strategy = %q, want the registry name %q", report.Strategy, spec.Name)
			}
			if len(report.Violations) < 2 {
				t.Fatalf("%d violations: the contract needs a search with several", len(report.Violations))
			}

			obs.mu.Lock()
			defer obs.mu.Unlock()
			for i, ev := range obs.events {
				if (ev == "final") != (i == len(obs.events)-1) {
					t.Fatalf("observer event %d of %d is %q: want exactly one final, delivered last",
						i+1, len(obs.events), ev)
				}
			}
			last := obs.progress[len(obs.progress)-1]
			if last.Strategy != spec.Name || last.Transitions != report.Transitions ||
				last.UniqueStates != report.UniqueStates || last.Revisits != report.Revisits ||
				last.Truncated != report.Truncated || last.SERuns != report.SERuns {
				t.Errorf("final snapshot %+v does not carry the report's counters %+v", last, report)
			}
			if len(obs.violations) < len(report.Violations) {
				t.Errorf("streamed %d violations, report has %d", len(obs.violations), len(report.Violations))
			}

			snap := reg.Snapshot()
			if err := snap.Validate(); err != nil {
				t.Fatalf("snapshot invalid: %v", err)
			}
			scope := report.Strategy
			if got := snap.Counter(scope + ".transitions"); got != report.Transitions {
				t.Errorf("%s.transitions = %d, report says %d", scope, got, report.Transitions)
			}
			if got := snap.Counter(scope + ".unique_states"); got != report.UniqueStates {
				t.Errorf("%s.unique_states = %d, report says %d", scope, got, report.UniqueStates)
			}
			if got := snap.Counter(scope + ".violations"); got != int64(len(report.Violations)) {
				t.Errorf("%s.violations = %d, report has %d", scope, got, len(report.Violations))
			}
			if depth, ok := snap.Histograms[scope+".depth"]; !ok || depth.Count == 0 || depth.Count > report.UniqueStates {
				t.Errorf("%s.depth observed %d states, report has %d", scope, depth.Count, report.UniqueStates)
			}
			// Exhaustive engines fork per transition; walks apply in place.
			if _, forks := exhaustive[spec.Name]; forks && (snap.Counter("cow.forks") == 0 || snap.Counter("cow.releases") == 0) {
				t.Errorf("COW layer not counted: forks=%d releases=%d",
					snap.Counter("cow.forks"), snap.Counter("cow.releases"))
			}
			if snap.Counter("cache.packets_hits")+snap.Counter("cache.packets_misses")+
				snap.Counter("cache.stats_hits")+snap.Counter("cache.stats_misses") == 0 {
				t.Error("no discover-cache lookup counted on an SE-enabled search")
			}
			if len(snap.Trace) < 2 {
				t.Fatalf("trace stream has %d events, want at least start+stop", len(snap.Trace))
			}
			first, stop := snap.Trace[0], snap.Trace[len(snap.Trace)-1]
			if first.Kind != nice.TraceSearchStart {
				t.Errorf("first trace event = %q, want %q", first.Kind, nice.TraceSearchStart)
			}
			if stop.Kind != nice.TraceSearchStop || stop.N != report.UniqueStates {
				t.Errorf("last trace event = %q/%d, want %q/%d",
					stop.Kind, stop.N, nice.TraceSearchStop, report.UniqueStates)
			}

			keys := make([]string, len(report.Violations))
			for i, v := range report.Violations {
				keys[i] = v.Property + "|" + v.Err.Error()
			}
			if !sort.SliceIsSorted(report.Violations, func(i, j int) bool {
				a, b := report.Violations[i], report.Violations[j]
				return a.Property < b.Property || (a.Property == b.Property && a.Err.Error() < b.Err.Error())
			}) {
				t.Errorf("Report.Violations not sorted by (property, error): %q", keys)
			}
			replayAll(t, build, report)
			if _, ok := exhaustive[spec.Name]; ok {
				exhaustive[spec.Name] = keys
			}
		})
	}
	for _, name := range []string{"parallel", "concolic"} {
		if !slices.Equal(exhaustive[name], exhaustive["dfs"]) {
			t.Errorf("%s reports %q,\ndfs reports %q: the ordered violation list must not depend on the engine",
				name, exhaustive[name], exhaustive["dfs"])
		}
	}
}

// TestSymTelemetryMonotoneAcrossCacheSets: one registry serving several
// cache sets sums their discovery — attaching a fresh set must not
// restart sym.explorations / sym.classes — and re-attaching a set adds
// nothing.
func TestSymTelemetryMonotoneAcrossCacheSets(t *testing.T) {
	reg := nice.NewTelemetry()
	run := func(cc *nice.Caches) *nice.Report {
		return nice.Run(context.Background(), fullBugII(),
			nice.WithCaches(cc), nice.WithTelemetry(reg))
	}
	check := func(when string, runs, classes int64) {
		t.Helper()
		snap := reg.Snapshot()
		if got := snap.Counter("sym.explorations"); got != runs || runs == 0 {
			t.Errorf("%s: sym.explorations = %d, reports sum to %d", when, got, runs)
		}
		if got := snap.Counter("sym.classes"); got != classes || classes == 0 {
			t.Errorf("%s: sym.classes = %d, reports sum to %d", when, got, classes)
		}
	}
	cc := nice.NewCaches()
	r1, r2 := run(nice.NewCaches()), run(cc)
	check("two fresh sets", r1.SERuns+r2.SERuns, r1.PacketClasses+r2.PacketClasses)
	r3 := run(cc) // Report.SERuns/PacketClasses are cumulative per set
	check("set attached again", r1.SERuns+r3.SERuns, r1.PacketClasses+r3.PacketClasses)
}

// TestTelemetrySnapshotFileRoundTrip: WriteFile → LoadTelemetrySnapshot
// preserves the series `nice -metrics-out` relies on.
func TestTelemetrySnapshotFileRoundTrip(t *testing.T) {
	reg := nice.NewTelemetry()
	nice.Run(context.Background(), fullBugII(), nice.WithTelemetry(reg))

	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := reg.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := nice.LoadTelemetrySnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counter("cow.forks") != reg.Snapshot().Counter("cow.forks") {
		t.Error("cow.forks lost in the file round trip")
	}
	if len(back.HistogramsWithSuffix(".depth")) == 0 {
		t.Error("depth histogram lost in the file round trip")
	}
}

// TestTelemetryMuxServesSearch: the live mux serves the snapshot of a
// finished search as well-formed JSON.
func TestTelemetryMuxServesSearch(t *testing.T) {
	reg := nice.NewTelemetry()
	report := nice.Run(context.Background(), fullBugII(), nice.WithTelemetry(reg))

	srv := httptest.NewServer(nice.TelemetryMux(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap nice.TelemetrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("dfs.transitions"); got != report.Transitions {
		t.Errorf("served dfs.transitions = %d, report says %d", got, report.Transitions)
	}
}

// TestCampaignTelemetryAndResults: a campaign with a registry attached
// aggregates per-job outcomes under the campaign scope, and each result
// carries the per-job COW and cache-hit columns the run-all table shows.
func TestCampaignTelemetryAndResults(t *testing.T) {
	c := &nice.Campaign{
		Jobs: []nice.CampaignJob{
			{Scenario: "bug-ii"},
			{Scenario: "bug-iii"},
		},
		ShareCaches: true,
		CachePrune:  1, // trim between sequential jobs: evictions must trace
		Telemetry:   nice.NewTelemetry(),
	}
	report := c.Run(context.Background())
	if !report.OK() {
		t.Fatalf("campaign not OK: %+v", report.Results)
	}

	snap := c.Telemetry.Snapshot()
	if got := snap.Counter("campaign.jobs"); got != int64(len(c.Jobs)) {
		t.Errorf("campaign.jobs = %d, want %d", got, len(c.Jobs))
	}
	if got := snap.Counter("campaign.outcome_" + nice.OutcomeFound); got != 2 {
		t.Errorf("campaign.outcome_%s = %d, want 2", nice.OutcomeFound, got)
	}
	var states int64
	for i := range report.Results {
		res := &report.Results[i]
		states += res.UniqueStates
		if res.COWForks == 0 {
			t.Errorf("%s: COWForks = 0", res.Label)
		}
		if res.StatesPerSec == 0 {
			t.Errorf("%s: StatesPerSec = 0 — final Progress not captured", res.Label)
		}
		if res.PeakHeapBytes == 0 {
			t.Errorf("%s: PeakHeapBytes = 0 — final Progress not captured", res.Label)
		}
	}
	if got := snap.Counter("campaign.unique_states"); got != states {
		t.Errorf("campaign.unique_states = %d, results sum to %d", got, states)
	}

	var text strings.Builder
	report.WriteText(&text)
	if !strings.Contains(text.String(), "hit%") {
		t.Error("run-all table lost the cache hit-rate column")
	}

	// The trim's evictions are counted and traced where the job's engine
	// metrics go — here one registry the caller owns.
	reg := nice.NewTelemetry()
	bounded := &nice.Campaign{Jobs: c.Jobs, ShareCaches: true, CachePrune: 1}
	if r := bounded.Run(context.Background(), nice.WithTelemetry(reg)); !r.OK() {
		t.Fatalf("bounded campaign not OK: %+v", r.Results)
	}
	snap = reg.Snapshot()
	traced := false
	for _, ev := range snap.Trace {
		traced = traced || (ev.Kind == nice.TraceCacheEvict && ev.Note == "capacity")
	}
	if snap.Counter("cache.evictions") == 0 || !traced {
		t.Errorf("CachePrune 1: cache.evictions = %d, capacity %s traced = %v",
			snap.Counter("cache.evictions"), nice.TraceCacheEvict, traced)
	}
}
