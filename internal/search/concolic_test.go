package search

import (
	"context"
	"sync"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// TestConcolicRegistered pins the engine's row in the table — the CLI
// and the service resolve it by name, in any case.
func TestConcolicRegistered(t *testing.T) {
	for _, name := range []string{"concolic", "Concolic"} {
		spec, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q): no such engine", name)
		}
		if got := spec.New().Name(); got != "concolic" {
			t.Fatalf("engine name = %q", got)
		}
		if spec.Summary == "" {
			t.Error("table row has no summary")
		}
	}
}

// TestConcolicFindsBugII runs the loop on the known-buggy pyswitch
// scenario: the full feedback search must report the reference
// violation set and replayable traces.
func TestConcolicFindsBugII(t *testing.T) {
	cfg := scenarios.MustLookup("bug-ii").Config(0)
	cfg.StopAtFirstViolation = false

	ref := dfs(cfg, nil)
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
		rep := core.ReplayWithProperties(scenarioConfig("bug-ii"), core.NewCaches(), v.Trace)
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
	dfs(scenarioConfig("pingpong-se"), ccEager)

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
// when demand discovery fits. The budget is charged only for the
// search's own explorations, not for those of another search sharing
// its memo.
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

	// loadbalancer-bench(3) runs 24 explorations of its own, a few of
	// them before its first violation. There, while its one search
	// worker waits, a full bug-xi search runs its own on the same memo,
	// more than 48; a budget of twice the 24 must still see the first
	// search through.
	cc := core.NewCaches()
	var once sync.Once
	other := func(core.Violation) {
		once.Do(func() {
			Loop().Search(context.Background(), scenarioConfig("bug-xi"),
				core.EngineOptions{Caches: cc, Workers: 1, SymWorkers: 1})
		})
	}
	shared := Loop().Search(context.Background(), scenarios.MustLookup("loadbalancer-bench").Config(3),
		core.EngineOptions{Caches: cc, Workers: 1, SymWorkers: 1, SymBudget: 48,
			Observer: core.ObserverFuncs{Violation: other}})
	if shared.StopReason != core.StopNone || !shared.Complete {
		t.Errorf("shared memo: stop=%q complete=%v, want a complete search", shared.StopReason, shared.Complete)
	}
	if n := cc.SERuns(); n <= 24+48 {
		t.Errorf("the two searches ran %d explorations, want more than 24+48", n)
	}
}

// TestConcolicFeedbackExports: a proactive target forks the state it
// came from, so feedbackTargets counts one export per target. A parent
// that reclaimed its epoch past an uncounted one would write components
// the queued fork still reads.
func TestConcolicFeedbackExports(t *testing.T) {
	ctx := context.Background()
	st := newLoop(ctx, scenarioConfig("pingpong-se"), core.EngineOptions{})
	defer st.s.End(ctx)
	root, _ := st.take()
	var sc scratch
	st.feedbackTargets(&sc, root)
	if n := int64(len(st.proactiveQ)); n == 0 || sc.exports != n {
		t.Errorf("%d proactive targets, %d exports; want some targets, one export each", n, sc.exports)
	}
}

// TestConcolicSolverQueues: a solver queues the post-discover state it
// admits even while no search worker waits for one, instead of
// expanding it in place as a search worker would.
func TestConcolicSolverQueues(t *testing.T) {
	ctx := context.Background()
	st := newLoop(ctx, scenarioConfig("pingpong-se"), core.EngineOptions{})
	defer st.s.End(ctx)
	root, _ := st.take()
	var sc scratch
	for _, tr := range root.sys.EnabledInto(nil) {
		if tr.Kind != core.THostDiscover {
			continue
		}
		tg := target{item: item{sys: root.sys.Clone(), trace: root.trace}, t: tr, demand: true}
		if !st.solve(&sc, tg) || len(st.items) != 1 || st.waiting.Load() != 0 {
			t.Errorf("solve: %d items queued with %d workers waiting, want the post-discover state queued",
				len(st.items), st.waiting.Load())
		}
		return
	}
	t.Fatal("the root enables no discover transition")
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
