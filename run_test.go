// Tests for the unified Run entry point: cancellation and budget
// semantics (partial-but-replayable reports under the sequential and
// parallel engines), Observer streaming, and engine selection.
package nice_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/scenarios"
)

// fullBugII is the BUG-II scenario with the early stop removed, so the
// search visits the whole state space (and can be cut mid-flight).
func fullBugII() *nice.Config {
	cfg := scenarios.MustLookup("bug-ii").Config(0)
	cfg.StopAtFirstViolation = false
	return cfg
}

func pingpong(pings int) *nice.Config {
	return scenarios.MustLookup("pingpong").Config(pings)
}

// replayAll asserts every violation in the report reproduces — same
// property, same error — when replayed from a fresh initial state.
func replayAll(t *testing.T, build func() *nice.Config, r *nice.Report) {
	t.Helper()
	for _, v := range r.Violations {
		_, got := nice.NewChecker(build()).ReplayWithProperties(v.Trace)
		if got == nil {
			t.Errorf("violation of %s did not reproduce on replay", v.Property)
			continue
		}
		if got.Property != v.Property || got.Err.Error() != v.Err.Error() {
			t.Errorf("replay reproduced %s (%v), want %s (%v)",
				got.Property, got.Err, v.Property, v.Err)
		}
	}
}

// TestRunDefaultMatchesCheck: Run with no options is the sequential
// reference search — identical counts and violations to
// NewChecker(cfg).Run().
func TestRunDefaultMatchesCheck(t *testing.T) {
	legacy := nice.NewChecker(fullBugII()).Run()
	got := nice.Run(context.Background(), fullBugII())
	if got.Strategy != "dfs" {
		t.Errorf("default engine = %q, want dfs", got.Strategy)
	}
	if got.UniqueStates != legacy.UniqueStates || got.Transitions != legacy.Transitions ||
		len(got.Violations) != len(legacy.Violations) {
		t.Errorf("Run states/trans/viols %d/%d/%d != Check %d/%d/%d",
			got.UniqueStates, got.Transitions, len(got.Violations),
			legacy.UniqueStates, legacy.Transitions, len(legacy.Violations))
	}
	if got.StopReason != nice.StopNone || !got.Complete {
		t.Errorf("full search ended with StopReason %q, Complete %v", got.StopReason, got.Complete)
	}
}

// TestRunCancelSequential: canceling the context mid-search yields a
// partial report — Complete false, StopReason canceled — whose traces
// replay deterministically. The observer cancels as soon as the first
// violation streams in, so the search is guaranteed to be mid-flight.
func TestRunCancelSequential(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report := nice.Run(ctx, fullBugII(),
		nice.WithObserver(nice.ObserverFuncs{
			Violation: func(nice.Violation) { cancel() },
		}))
	if report.Complete {
		t.Error("canceled search reported Complete")
	}
	if report.StopReason != nice.StopCanceled {
		t.Errorf("StopReason = %q, want %q", report.StopReason, nice.StopCanceled)
	}
	if len(report.Violations) == 0 {
		t.Fatal("expected at least the violation that triggered the cancel")
	}
	full := nice.NewChecker(fullBugII()).Run()
	if report.Transitions >= full.Transitions {
		t.Errorf("canceled search ran %d transitions, full search runs %d — not partial",
			report.Transitions, full.Transitions)
	}
	replayAll(t, fullBugII, report)
}

// TestRunCancelParallel: the same mid-search cancel under the parallel
// work-stealing engine.
func TestRunCancelParallel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	report := nice.Run(ctx, fullBugII(),
		nice.WithWorkers(4),
		nice.WithObserver(nice.ObserverFuncs{
			Violation: func(nice.Violation) { cancel() },
		}))
	if report.Complete {
		t.Error("canceled search reported Complete")
	}
	if report.StopReason != nice.StopCanceled {
		t.Errorf("StopReason = %q, want %q", report.StopReason, nice.StopCanceled)
	}
	if len(report.Violations) == 0 {
		t.Fatal("expected at least the violation that triggered the cancel")
	}
	replayAll(t, fullBugII, report)
}

// TestRunMaxStatesSequential: the sequential engine stops exactly at
// the unique-state budget and the partial report replays.
func TestRunMaxStatesSequential(t *testing.T) {
	const budget = 100
	report := nice.Run(context.Background(), fullBugII(), nice.WithMaxStates(budget))
	if report.Complete {
		t.Error("budget-aborted search reported Complete")
	}
	if report.StopReason != nice.StopMaxStates {
		t.Errorf("StopReason = %q, want %q", report.StopReason, nice.StopMaxStates)
	}
	if report.UniqueStates != budget {
		t.Errorf("UniqueStates = %d, want exactly %d (sequential budget is exact)",
			report.UniqueStates, budget)
	}
	replayAll(t, fullBugII, report)
}

// TestRunMaxStatesParallel: the parallel engine stops at the budget,
// overshooting by at most the worker count.
func TestRunMaxStatesParallel(t *testing.T) {
	const budget, workers = 100, 4
	report := nice.Run(context.Background(), fullBugII(),
		nice.WithWorkers(workers), nice.WithMaxStates(budget))
	if report.Complete {
		t.Error("budget-aborted search reported Complete")
	}
	if report.StopReason != nice.StopMaxStates {
		t.Errorf("StopReason = %q, want %q", report.StopReason, nice.StopMaxStates)
	}
	if report.UniqueStates < budget || report.UniqueStates > budget+workers {
		t.Errorf("UniqueStates = %d, want within [%d, %d]",
			report.UniqueStates, budget, budget+workers)
	}
	replayAll(t, fullBugII, report)
}

// TestRunMaxTransitions: the transition budget is exact on both engines
// (slots are reserved before the apply).
func TestRunMaxTransitions(t *testing.T) {
	for name, opts := range map[string][]nice.RunOption{
		"sequential": {nice.WithMaxTransitions(50)},
		"parallel":   {nice.WithMaxTransitions(50), nice.WithWorkers(4)},
	} {
		report := nice.Run(context.Background(), pingpong(3), opts...)
		if report.Complete || report.StopReason != nice.StopMaxTransitions {
			t.Errorf("%s: Complete=%v StopReason=%q, want aborted at max-transitions",
				name, report.Complete, report.StopReason)
		}
		if report.Transitions > 50 {
			t.Errorf("%s: executed %d transitions, budget 50", name, report.Transitions)
		}
	}
}

// TestRunDeadline: a wall-clock budget far below the search's runtime
// aborts with StopDeadline on both engines.
func TestRunDeadline(t *testing.T) {
	for name, opts := range map[string][]nice.RunOption{
		"sequential": {nice.WithDeadline(time.Millisecond)},
		"parallel":   {nice.WithDeadline(time.Millisecond), nice.WithWorkers(2)},
	} {
		report := nice.Run(context.Background(), pingpong(4), opts...)
		if report.Complete || report.StopReason != nice.StopDeadline {
			t.Errorf("%s: Complete=%v StopReason=%q, want aborted at deadline",
				name, report.Complete, report.StopReason)
		}
	}
}

// TestRunWalkEngines: WithWalks selects the sequential random-walk
// engine; adding WithWorkers selects the swarm; what either finds
// replays.
func TestRunWalkEngines(t *testing.T) {
	build := func() *nice.Config { return scenarios.MustLookup("bug-iv").Config(0) }

	got := nice.Run(context.Background(), build(), nice.WithWalks(7, 40, 60))
	if got.Strategy != "walks" {
		t.Errorf("walk engine = %q, want walks", got.Strategy)
	}
	replayAll(t, build, got)

	swarm := nice.Run(context.Background(), build(),
		nice.WithWalks(7, 40, 60), nice.WithWorkers(2))
	if swarm.Strategy != "swarm" {
		t.Errorf("swarm engine = %q, want swarm", swarm.Strategy)
	}
	replayAll(t, build, swarm)
}

// streamCollector is a concurrency-safe Observer for tests.
type streamCollector struct {
	mu         sync.Mutex
	violations []nice.Violation
	progress   []nice.Progress
}

func (s *streamCollector) OnViolation(v nice.Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.violations = append(s.violations, v)
}

func (s *streamCollector) OnProgress(p nice.Progress) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.progress = append(s.progress, p)
}

// TestObserverStreaming: violations stream exactly once per reported
// violation, snapshots arrive while the search runs, and the final
// snapshot carries the closing totals.
func TestObserverStreaming(t *testing.T) {
	// pyswitch-bench: a full search big enough (~10k states) that
	// 1ms-interval snapshots are guaranteed to fire mid-run.
	build := func() *nice.Config { return scenarios.MustLookup("pyswitch-bench").Config(3) }
	for name, extra := range map[string][]nice.RunOption{
		"sequential": nil,
		"parallel":   {nice.WithWorkers(4)},
	} {
		obs := &streamCollector{}
		opts := append([]nice.RunOption{
			nice.WithObserver(obs),
			nice.WithProgressEvery(time.Millisecond),
		}, extra...)
		report := nice.Run(context.Background(), build(), opts...)

		obs.mu.Lock()
		streamed := len(obs.violations)
		var finals int
		var last nice.Progress
		for _, p := range obs.progress {
			if p.Final {
				finals++
				last = p
			}
		}
		nonFinal := len(obs.progress) - finals
		obs.mu.Unlock()

		// The violation set may stream a (property, error) key and later
		// drop it at merge time in favor of a same-trace twin, so
		// streamed >= reported; this workload's one violation has no
		// twin, so the sequential stream is exactly the report.
		if streamed < len(report.Violations) {
			t.Errorf("%s: streamed %d violations, report has %d",
				name, streamed, len(report.Violations))
		}
		if name == "sequential" && streamed != len(report.Violations) {
			t.Errorf("sequential: streamed %d violations, report has %d",
				streamed, len(report.Violations))
		}
		if finals != 1 {
			t.Errorf("%s: %d final snapshots, want exactly 1", name, finals)
		}
		if nonFinal == 0 {
			t.Errorf("%s: no periodic snapshots at a 1ms interval", name)
		}
		if last.Transitions != report.Transitions || last.UniqueStates != report.UniqueStates {
			t.Errorf("%s: final snapshot %d/%d != report %d/%d", name,
				last.Transitions, last.UniqueStates, report.Transitions, report.UniqueStates)
		}
	}
}
