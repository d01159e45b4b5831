package search

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// violatedSet projects a report onto its violated-property set.
func violatedSet(r *core.Report) map[string]bool {
	set := make(map[string]bool)
	for _, v := range r.Violations {
		set[v.Property] = true
	}
	return set
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// dfs runs the sequential DFS with fresh discover caches unless cc is
// given.
func dfs(cfg *core.Config, cc *core.Caches) *core.Report {
	return DFS().Search(context.Background(), cfg, core.EngineOptions{Caches: cc})
}

// parallel runs the parallel engine with fresh discover caches
// unless cc is given.
func parallel(cfg *core.Config, workers int, cc *core.Caches) *core.Report {
	return Parallel().Search(context.Background(), cfg,
		core.EngineOptions{Workers: workers, Caches: cc})
}

// fullSearch is the bug scenario with the early stop removed, so both
// engines walk the whole state space and reports are comparable.
func fullSearch(sc scenarios.Scenario) *core.Config {
	cfg := sc.Config(0)
	cfg.StopAtFirstViolation = false
	return cfg
}

// TestDifferentialParityNoSE checks exact cold-start parity on the §7
// pyswitch ping workload, where symbolic execution is off and state
// identity is independent of the discover caches: the parallel engine
// must reach exactly the sequential DFS's unique states and execute
// exactly its transitions, for any worker count.
func TestDifferentialParityNoSE(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		cfg := scenarios.MustLookup("pingpong").Config(2)
		seq := dfs(cfg, nil)
		par := parallel(scenarios.MustLookup("pingpong").Config(2), workers, nil)
		if par.UniqueStates != seq.UniqueStates || par.Transitions != seq.Transitions ||
			par.Revisits != seq.Revisits {
			t.Errorf("workers=%d: parallel states/trans/revisits %d/%d/%d != sequential %d/%d/%d",
				workers, par.UniqueStates, par.Transitions, par.Revisits,
				seq.UniqueStates, seq.Transitions, seq.Revisits)
		}
	}
}

// TestDifferentialParityWarm checks exact parity on every Table 2
// scenario — pyswitch (BUG-I..III), load balancer (BUG-IV..VII) and TE
// (BUG-VIII..XI) — with the discover caches warmed and then shared:
// first by concolic runs, whose proactive discovery memoizes results the
// sequential search never asks for, until one explores nothing new (a
// cold run reaches other controller states than a warm one), then by
// one sequential run. Warm caches pin down state identity (cache
// presence is part of the hash, mirroring Figure 5's client.packets
// map), making unique-state and transition counts schedule-independent;
// the parallel engine and the concolic loop must match the sequential
// DFS exactly. The loop opens its proactive rounds per (controller
// state, host, location), the key the discover memo holds, so a moving
// host (BUG-I) leaves nothing to the schedule either.
func TestDifferentialParityWarm(t *testing.T) {
	ctx := context.Background()
	for _, sc := range scenarios.Table2() {
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			t.Parallel()
			cfg := fullSearch(sc)
			cc := core.NewCaches()
			loopOpts := core.EngineOptions{Caches: cc, Workers: 4, SymWorkers: 2}
			for n := int64(-1); n != cc.SERuns(); {
				n = cc.SERuns()
				Loop().Search(ctx, cfg, loopOpts)
			}
			dfs(cfg, cc)
			seq := dfs(cfg, cc)
			for name, r := range map[string]*core.Report{
				"parallel": parallel(cfg, 4, cc),
				"concolic": Loop().Search(ctx, cfg, loopOpts),
			} {
				if r.UniqueStates != seq.UniqueStates || r.Transitions != seq.Transitions {
					t.Errorf("%s states/trans %d/%d != sequential %d/%d",
						name, r.UniqueStates, r.Transitions, seq.UniqueStates, seq.Transitions)
				}
				if !sameSet(violatedSet(r), violatedSet(seq)) {
					t.Errorf("violated properties differ: %s %v, sequential %v",
						name, violatedSet(r), violatedSet(seq))
				}
			}
		})
	}
}

// TestDifferentialViolations checks that cold-start parallel searches
// find exactly the sequential DFS's violated-property set on every
// bug scenario. (Cold unique-state counts can differ slightly on
// SE-enabled scenarios — discover-cache presence is part of state
// identity and fills in schedule order — but the violations cannot:
// every reachable underlying state is eventually expanded with its full
// send repertoire under any schedule.)
func TestDifferentialViolations(t *testing.T) {
	for _, sc := range scenarios.Table2() {
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			t.Parallel()
			seq := dfs(fullSearch(sc), nil)
			par := parallel(fullSearch(sc), 4, nil)
			if !sameSet(violatedSet(par), violatedSet(seq)) {
				t.Errorf("violated properties differ: parallel %v, sequential %v",
					violatedSet(par), violatedSet(seq))
			}
			if !violatedSet(par)[sc.ExpectedProperty] {
				t.Errorf("parallel search missed %s", sc.ExpectedProperty)
			}
		})
	}
}

// TestReplayDeterminism: every violation the parallel engine reports
// must reproduce — same property, same error — when its trace is
// replayed from a fresh initial state through core.ReplayWithProperties.
// This is the paper's deterministic-replay guarantee (§1.3, §6) carried
// over to traces recorded concurrently.
func TestReplayDeterminism(t *testing.T) {
	for _, sc := range scenarios.Table2() {
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			t.Parallel()
			par := parallel(fullSearch(sc), 4, nil)
			if len(par.Violations) == 0 {
				t.Fatalf("no violations to replay")
			}
			for _, v := range par.Violations {
				got := core.ReplayWithProperties(fullSearch(sc), core.NewCaches(), v.Trace)
				if got == nil {
					t.Errorf("violation of %s did not reproduce on replay", v.Property)
					continue
				}
				if got.Property != v.Property || got.Err.Error() != v.Err.Error() {
					t.Errorf("replay reproduced %s (%v), parallel engine reported %s (%v)",
						got.Property, got.Err, v.Property, v.Err)
				}
			}
		})
	}
}

// TestReportDeterministic: a full parallel search reports the same
// violations, in the same sorted order, on every run — regardless of
// worker interleaving. (Trace lengths may vary: which path first
// reaches a violating state is scheduling-dependent; replayability of
// whatever trace is kept is asserted by TestReplayDeterminism.)
func TestReportDeterministic(t *testing.T) {
	ref := parallel(fullSearch(scenarios.MustLookup("bug-iii")), 4, nil)
	for i := 0; i < 3; i++ {
		got := parallel(fullSearch(scenarios.MustLookup("bug-iii")), 4, nil)
		if len(got.Violations) != len(ref.Violations) {
			t.Fatalf("run %d: %d violations, want %d", i, len(got.Violations), len(ref.Violations))
		}
		for j := range got.Violations {
			g, r := got.Violations[j], ref.Violations[j]
			if g.Property != r.Property || g.Err.Error() != r.Err.Error() {
				t.Errorf("run %d violation %d: got %s (%v), want %s (%v)",
					i, j, g.Property, g.Err, r.Property, r.Err)
			}
		}
	}
}

// TestStopAtFirstViolation: the parallel engine honors the early stop
// and still returns a reproducible violation.
func TestStopAtFirstViolation(t *testing.T) {
	cfg := scenarios.MustLookup("bug-ii").Config(0) // StopAtFirstViolation set
	par := parallel(cfg, 4, nil)
	v := par.FirstViolation()
	if v == nil {
		t.Fatal("no violation found")
	}
	if v.Property != "StrictDirectPaths" {
		t.Fatalf("found %s, want StrictDirectPaths", v.Property)
	}
	got := core.ReplayWithProperties(scenarios.MustLookup("bug-ii").Config(0), core.NewCaches(), v.Trace)
	if got == nil || got.Property != v.Property {
		t.Fatalf("early-stop violation did not reproduce on replay")
	}
}

// TestMaxTransitionsBudget: the engine aborts at the transition budget
// and marks the report incomplete, like the sequential DFS.
func TestMaxTransitionsBudget(t *testing.T) {
	const budget = 50
	par := Parallel().Search(context.Background(), scenarios.MustLookup("pingpong").Config(3),
		core.EngineOptions{Workers: 4, MaxTransitions: budget})
	if par.Complete {
		t.Error("report marked complete despite the budget")
	}
	// Budget slots are reserved before applying, so the bound is exact.
	if par.Transitions > budget {
		t.Errorf("executed %d transitions, budget %d", par.Transitions, budget)
	}
}

// TestSwarmWorkerInvariance: walk i always runs with seed Seed+i, so a
// swarm's walk set — its transitions, unique states (SE off) and
// violations — does not depend on the worker count.
func TestSwarmWorkerInvariance(t *testing.T) {
	run := func(workers int) *core.Report {
		return SwarmEngine().Search(context.Background(), scenarios.MustLookup("pingpong").Config(3),
			core.EngineOptions{Workers: workers, Seed: 7, Walks: 32, Steps: 60})
	}
	ref := run(1)
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if got.Transitions != ref.Transitions || got.UniqueStates != ref.UniqueStates {
			t.Errorf("workers=%d: trans/states %d/%d != workers=1 %d/%d",
				workers, got.Transitions, got.UniqueStates, ref.Transitions, ref.UniqueStates)
		}
	}
}

// TestSwarmFindsViolation: the swarm reproduces the random-walk hunt
// (cmd/nice's walk mode) and its finds replay deterministically.
func TestSwarmFindsViolation(t *testing.T) {
	cfg := scenarios.MustLookup("bug-iv").Config(0)
	par := SwarmEngine().Search(context.Background(), cfg,
		core.EngineOptions{Workers: 4, Seed: 1, Walks: 100, Steps: 60})
	v := par.FirstViolation()
	if v == nil {
		t.Fatal("swarm found no violation on BUG-IV")
	}
	got := core.ReplayWithProperties(scenarios.MustLookup("bug-iv").Config(0), core.NewCaches(), v.Trace)
	if got == nil || got.Property != v.Property || got.Err.Error() != v.Err.Error() {
		t.Fatalf("swarm violation did not reproduce on replay")
	}
}

// TestSeenSet exercises the striped set directly.
func TestSeenSet(t *testing.T) {
	s := newSeenSet(8)
	a := canon.Digest{0, 0} // also produced by the i=0 loop iteration below
	if !s.Add(a) || s.Add(a) {
		t.Error("Add must report first insertion exactly once")
	}
	for i := 0; i < 1000; i++ {
		s.Add(canon.Digest{uint64(i % 26), uint64(i % 26)})
	}
	if got := s.Len(); got != 26 {
		t.Errorf("Len = %d, want 26", got)
	}
}

// TestSeenShardSize: a seen-set shard fills one 64-byte cache line, so
// workers probing adjacent shards do not false-share. A field added
// without shrinking the pad changes the size.
func TestSeenShardSize(t *testing.T) {
	if size := unsafe.Sizeof(seenShard{}); size != 64 {
		t.Errorf("seenShard is %d bytes, want one 64-byte cache line", size)
	}
}

// TestQueue exercises take's blocking contract: with an item pending
// and none queued, take blocks and counts as waiting until an item is
// put (which it returns), the search stops, or the pending item is done
// (both false); waiting is back to 0 after each, and put counts the
// export.
func TestQueue(t *testing.T) {
	var q queue
	s := q.begin(context.Background(), "parallel", &core.Config{}, core.EngineOptions{})
	defer s.End(context.Background())
	got := make(chan bool)
	takeWhile := func(step string, unblock func()) bool {
		t.Helper()
		go func() { _, ok := q.take(); got <- ok }()
		for deadline := time.Now().Add(5 * time.Second); q.waiting.Load() != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: waiting = %d while a take blocks, want 1", step, q.waiting.Load())
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case <-got:
			t.Fatalf("%s: take returned with nothing queued and an item pending", step)
		default:
		}
		unblock()
		ok := <-got
		if n := q.waiting.Load(); n != 0 {
			t.Fatalf("%s: waiting = %d after take returned, want 0", step, n)
		}
		return ok
	}
	enqueue(&q, &q.items, item{}) // the root
	if _, ok := q.take(); !ok {
		t.Fatal("take should return the queued root")
	}
	var sc scratch
	if !takeWhile("put", func() { q.put(&sc, item{}) }) {
		t.Fatal("a blocked take should return the item put meanwhile")
	}
	if sc.exports != 1 {
		t.Fatalf("exports = %d after one put, want 1", sc.exports)
	}
	q.done() // the put item; the root is still pending
	if takeWhile("drain", q.done) {
		t.Fatal("take returned an item once nothing was pending")
	}
	q.put(&sc, item{})
	if _, ok := q.take(); !ok {
		t.Fatal("take should return the queued item")
	}
	if takeWhile("stop", func() { s.Abort(core.StopNone) }) {
		t.Fatal("take returned an item after the stop")
	}
}

// TestFrontierPeak: frontier_peak is a high-water mark of the queue,
// raised as items are put, so a search that ends before its first
// progress snapshot still reports the root it queued.
func TestFrontierPeak(t *testing.T) {
	for _, e := range []core.Engine{Parallel(), Loop()} {
		reg := telemetry.New()
		e.Search(context.Background(), scenarioConfig("pingpong-se"),
			core.EngineOptions{Workers: 2, Telemetry: reg})
		if peak := reg.Snapshot().Gauges[e.Name()+".frontier_peak"]; peak < 1 {
			t.Errorf("%s: frontier_peak = %d, want >= 1", e.Name(), peak)
		}
	}
}

// violationKeys projects a report onto its sorted property|error keys.
func violationKeys(r *core.Report) []string {
	var keys []string
	for _, v := range r.Violations {
		keys = append(keys, v.Property+"|"+v.Err.Error())
	}
	slices.Sort(keys)
	return keys
}

// TestReclaimHandoffParity pins the reclaim rule and the trace stack of
// the parallel expansion on one goroutine, where the handoffs do not
// depend on timing: push puts every k-th admitted child on the queue
// and expands the rest in place, and work drains the queue, so lent
// subtrees both do and do not export states. A parent that reclaimed a
// fork whose subtree exported a state would write into components that
// state still shares; an expansion clobbering an outer depth's enabled
// list would skip or repeat transitions. Either shows as a count or
// violation that differs from the sequential DFS's, on warm caches
// (where state identity is schedule-independent). Every recorded trace
// must replay to its violation: a queued child that kept sharing its
// worker's stack, or an in-place child whose transition never reached
// the stack, would record another path's trace.
func TestReclaimHandoffParity(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		scenario string
		scale    int
	}{{"pyswitch-bench", 3}, {"pyswitch-linearhosts", 4}, {"loadbalancer-bench", 0}} {
		cfg := scenarios.MustLookup(tc.scenario).Config(tc.scale)
		cfg.StopAtFirstViolation = false
		cc := core.NewCaches()
		dfs(cfg, cc) // warm the discover caches
		ref := dfs(cfg, cc)
		// replays reports whether v's trace reproduces v; a trace of
		// another path may not even be executable, and panics.
		replays := func(v core.Violation) (ok bool) {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			got := core.ReplayWithProperties(cfg, cc, v.Trace)
			return got != nil && got.Property == v.Property && got.Err.Error() == v.Err.Error()
		}
		for _, k := range []int{2, 5, 64} {
			// The budgets stop a search a broken reclaim sends astray.
			eo := core.EngineOptions{Caches: cc,
				MaxStates: 2 * ref.UniqueStates, MaxTransitions: 2 * ref.Transitions}
			st := newParallel(ctx, cfg, eo)
			admitted := 0
			st.push = func(sc *scratch, it item) bool {
				if admitted++; admitted%k == 0 {
					st.put(sc, it)
					return true
				}
				return st.expand(sc, it)
			}
			st.work()
			r := st.s.End(ctx)
			if !r.Complete || r.UniqueStates != ref.UniqueStates || r.Transitions != ref.Transitions ||
				r.Revisits != ref.Revisits || !slices.Equal(violationKeys(r), violationKeys(ref)) {
				t.Errorf("%s(%d), every %d-th child handed off: states/trans/revisits %d/%d/%d, %d violations; sequential %d/%d/%d, %d",
					tc.scenario, tc.scale, k, r.UniqueStates, r.Transitions, r.Revisits, len(r.Violations),
					ref.UniqueStates, ref.Transitions, ref.Revisits, len(ref.Violations))
			}
			for _, v := range r.Violations {
				if !replays(v) {
					t.Errorf("%s(%d), every %d-th child handed off: the trace of %s (%v) does not replay to it",
						tc.scenario, tc.scale, k, v.Property, v.Err)
				}
			}
		}
	}
}
