package search

import (
	"context"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// TestConcolicRegistered pins the engine's registry entry — the CLI and
// the service resolve it by name.
func TestConcolicRegistered(t *testing.T) {
	spec, ok := core.LookupEngine("concolic")
	if !ok {
		t.Fatal("concolic engine not registered")
	}
	if got := spec.New().Name(); got != "concolic" {
		t.Fatalf("engine name = %q", got)
	}
	if spec.Summary == "" {
		t.Error("registry entry has no summary")
	}
}

// TestConcolicFindsBugII runs the loop on the known-buggy pyswitch
// scenario: the full feedback search must report the reference
// violation set and replayable traces.
func TestConcolicFindsBugII(t *testing.T) {
	cfg := scenarios.MustLookup("bug-ii").Config(0)
	cfg.StopAtFirstViolation = false

	ref := core.NewChecker(cfg).Run()
	loop := Loop().Search(context.Background(),
		scenarioConfig("bug-ii"), core.EngineOptions{Workers: 4, SymWorkers: 2})

	if !loop.Complete || loop.StopReason != core.StopNone {
		t.Fatalf("loop partial: %q", loop.StopReason)
	}
	want, got := violatedSet(ref), violatedSet(loop)
	if len(want) == 0 {
		t.Fatal("reference search found no violations")
	}
	for p := range want {
		if !got[p] {
			t.Errorf("loop missed %q", p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("loop reported extra violation %q", p)
		}
	}
	for _, v := range loop.Violations {
		_, rep := core.NewChecker(scenarioConfig("bug-ii")).ReplayWithProperties(v.Trace)
		if rep == nil || rep.Property != v.Property {
			t.Errorf("trace for %q did not replay", v.Property)
		}
	}
}

func scenarioConfig(name string) *core.Config {
	cfg := scenarios.MustLookup(name).Config(0)
	cfg.StopAtFirstViolation = false
	return cfg
}

// TestConcolicFeedbackClasses pins the loop's reason to exist: on an
// SE-enabled scenario it must run feedback rounds and discover strictly
// more packet classes than the eager reference search, while agreeing
// on the violation set.
func TestConcolicFeedbackClasses(t *testing.T) {
	ccEager := core.NewCaches()
	core.NewCheckerWith(scenarioConfig("pingpong-se"), ccEager).Run()

	ccLoop := core.NewCaches()
	loop := Loop().Search(context.Background(), scenarioConfig("pingpong-se"),
		core.EngineOptions{Caches: ccLoop, Workers: 4, SymWorkers: 2})

	if loop.FeedbackRounds == 0 {
		t.Error("no feedback rounds on an SE scenario")
	}
	if loop.PacketClasses != ccLoop.Classes() {
		t.Errorf("report classes %d != cache classes %d", loop.PacketClasses, ccLoop.Classes())
	}
	if loop.PacketClasses <= ccEager.Classes() {
		t.Errorf("loop classes %d not strictly above eager %d",
			loop.PacketClasses, ccEager.Classes())
	}
	eager := ccEager.DiscoveredClasses()
	got := ccLoop.DiscoveredClasses()
	for class := range eager {
		if !got[class] {
			t.Errorf("eager class missing: %s", class)
		}
	}
}

// TestConcolicSymBudget covers both budget outcomes: a budget too small
// for the demanded discover runs aborts with StopSymBudget (partial),
// and the exhausted loop drops proactive targets instead of aborting
// when demand discovery fits.
func TestConcolicSymBudget(t *testing.T) {
	r := Loop().Search(context.Background(), scenarioConfig("pingpong-se"),
		core.EngineOptions{Workers: 2, SymWorkers: 1, SymBudget: 1})
	if r.StopReason != core.StopSymBudget {
		t.Errorf("StopReason = %q, want %q", r.StopReason, core.StopSymBudget)
	}
	if r.Complete {
		t.Error("budget-stopped report must be partial")
	}

	full := Loop().Search(context.Background(), scenarioConfig("pingpong-se"),
		core.EngineOptions{Workers: 2, SymWorkers: 1, SymBudget: 1 << 30})
	if full.StopReason != core.StopNone || !full.Complete {
		t.Errorf("roomy budget: stop=%q complete=%v", full.StopReason, full.Complete)
	}
}

// TestConcolicCancel covers the cancellation path: a pre-canceled
// context stops the loop before it explores, and mid-flight
// cancellation yields a partial canceled report.
func TestConcolicCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Loop().Search(ctx, scenarioConfig("pingpong-se"), core.EngineOptions{})
	if r.StopReason != core.StopCanceled {
		t.Errorf("StopReason = %q, want %q", r.StopReason, core.StopCanceled)
	}
	if r.Transitions != 0 {
		t.Errorf("pre-canceled search executed %d transitions", r.Transitions)
	}
}

// TestConcolicTelemetry pins the sym scope the loop publishes: the
// counters must be coherent (sat + unsat = solver calls, hits + misses
// = solver calls) and feedback_rounds must match the report.
func TestConcolicTelemetry(t *testing.T) {
	reg := telemetry.New()
	loop := Loop().Search(context.Background(), scenarioConfig("pingpong-se"),
		core.EngineOptions{Workers: 2, SymWorkers: 2, Telemetry: reg})

	counters := reg.Snapshot().Counters
	calls := counters["sym.solver_calls"]
	if calls == 0 {
		t.Fatal("no solver calls recorded on an SE scenario")
	}
	if got := counters["sym.solver_sat"] + counters["sym.solver_unsat"]; got != calls {
		t.Errorf("sat %d + unsat %d != calls %d",
			counters["sym.solver_sat"], counters["sym.solver_unsat"], calls)
	}
	if got := counters["sym.memo_hits"] + counters["sym.memo_misses"]; got != calls {
		t.Errorf("hits %d + misses %d != calls %d",
			counters["sym.memo_hits"], counters["sym.memo_misses"], calls)
	}
	if counters["sym.feedback_rounds"] != loop.FeedbackRounds {
		t.Errorf("feedback_rounds counter %d != report %d",
			counters["sym.feedback_rounds"], loop.FeedbackRounds)
	}
	if counters["sym.classes"] != loop.PacketClasses {
		t.Errorf("classes counter %d != report %d",
			counters["sym.classes"], loop.PacketClasses)
	}
}
