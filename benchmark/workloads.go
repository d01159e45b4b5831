package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	nice "github.com/nice-go/nice"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/scenarios"
	"github.com/nice-go/nice/topo"
)

// workload is one named set of inputs the benchmark runs.
type workload interface {
	name() string
	// why says, in one line, what the workload stresses and what it
	// bypasses (BENCHMARK.json carries the same line).
	why() string
	// setup builds everything the ops need — configurations, a booted
	// server — and runs one untimed, checked warm-up op.
	setup(e *env) (session, error)
}

// session is a set-up workload, ready to be measured.
type session interface {
	// measure runs timed ops, untraced, for about d.
	measure(d time.Duration) measurement
	// traced runs the workload once under tr, filing per-layer metrics
	// in m; d scales the timed loops. It returns the ops it attempted.
	traced(tr *tracer, d time.Duration, m map[string]float64) int
	close()
}

// workers is the fixed worker and client count: the cores of the box
// the baseline was pinned on. Fixed, not NumCPU, so the same inputs
// run everywhere.
const workers = 2

var workloads = []workload{
	&fullSearch{id: "pyswitch-full-dfs", scenario: "pyswitch-bench", scale: 4, smokeScale: 3, reps: 5,
		reason: "MAC-learning switch, full sequential DFS: the per-state hot loop (fingerprint+apply ~3/4 of wall); symbolic execution is 4 calls"},
	&fullSearch{id: "loadbalancer-full-dfs", scenario: "loadbalancer-bench", scale: 5, smokeScale: 3, reps: 6,
		reason: "same core layer used differently: wildcard rules, environment events, 422 quiescence violations; catches a hash or COW change that only helps pyswitch"},
	&fullSearch{id: "pyswitch-full-par2", scenario: "pyswitch-bench", scale: 4, smokeScale: 3, reps: 7, parallel: true,
		reason: "the pyswitch search on the 2-worker parallel engine: the only workload where internal/search (frontier, sharded seen-set, steals) works"},
	&table2{},
	&concolic{},
	&dpor{},
	&service{},
}

func workloadByName(name string) workload {
	for _, w := range workloads {
		if w.name() == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name())
	}
	return names
}

var background = context.Background()

// timed runs fn after a collection, so steps of a traced run do not
// pay for each other's garbage, and returns its wall time.
func timed(fn func()) time.Duration {
	runtime.GC()
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// seqSession adapts a sequential op to session.measure. reps caps the
// ops of one run: sized to fill ten seconds on the baseline box, so
// runs there have the same sample count and --seconds only cuts a run
// short on a slower one.
type seqSession struct {
	op   func() sample
	reps int
}

func (s seqSession) measure(d time.Duration) measurement { return repeat(d, s.reps, s.op) }
func (seqSession) close()                                {}

// ---- full searches -------------------------------------------------

// fullSearch is a complete search of one registry scenario with the
// early stop off, on the sequential DFS or the parallel engine.
type fullSearch struct {
	id, scenario, reason    string
	scale, smokeScale, reps int
	parallel                bool
}

func (w *fullSearch) name() string { return w.id }
func (w *fullSearch) why() string  { return w.reason }

type fullSearchSession struct {
	seqSession
	w   *fullSearch
	e   *env
	cfg namedConfig
}

func (w *fullSearch) setup(e *env) (session, error) {
	scale := w.scale
	if e.smoke {
		scale = w.smokeScale
	}
	sc, ok := scenarios.Lookup(w.scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q not registered", w.scenario)
	}
	s := &fullSearchSession{w: w, e: e, cfg: namedConfig{
		name: fmt.Sprintf("%s(%d)", w.scenario, scale),
		build: func() *core.Config {
			cfg := sc.Config(scale)
			cfg.StopAtFirstViolation = false
			return cfg
		}}}
	cfg := s.cfg.build()
	s.reps = w.reps
	s.op = func() sample { return s.search(cfg, w.parallel) }
	e.note("warm-up", s.op())
	return s, nil
}

// search is one op: a full search from cold caches on the sequential
// or the parallel engine, checked against the workload's pin. The pin
// of the parallel workload holds no exact counts (they drift by a
// fraction of a percent with the schedule), so there even a sequential
// reference search is held to the violation set only.
func (s *fullSearchSession) search(cfg *core.Config, parallel bool, extra ...nice.RunOption) sample {
	if parallel {
		extra = append(extra, nice.WithEngine(nice.ParallelHybrid()), nice.WithWorkers(workers))
	}
	r := nice.Run(background, cfg, extra...)
	return sample{States: r.UniqueStates, Transitions: r.Transitions, SERuns: r.SERuns,
		Classes: r.PacketClasses, Err: s.e.check("search", verdictOf(r, !s.w.parallel, false))}
}

func (s *fullSearchSession) traced(tr *tracer, d time.Duration, m map[string]float64) int {
	cfgs := []namedConfig{s.cfg}
	tracedLayers(tr, s.e, cfgs, d, m)
	cfg := s.cfg.build()

	// The sequential search, untraced: the base of the tracing and
	// telemetry overhead ratios (and of the parallel efficiency).
	var plain sample
	plainWall := timed(func() { plain = s.e.note("traced dfs", s.search(cfg, false)) })
	pin := "search"
	if s.w.parallel {
		pin = "" // no exact counts to hold the sequential driver to
	}
	driverWall := driveConfigs(tr, s.e, pin, cfgs, m)
	m["trace.overhead_ratio"] = driverWall.Seconds() / plainWall.Seconds()

	reg := nice.NewTelemetry()
	telWall := timed(func() { s.e.note("traced telemetry", s.search(cfg, false, nice.WithTelemetry(reg))) })
	m["telemetry.overhead_ratio"] = telWall.Seconds() / plainWall.Seconds()
	ops := 2

	if s.w.parallel {
		var par sample
		parWall := timed(func() { par = s.e.note("traced par2", s.search(cfg, true)) })
		reg = nice.NewTelemetry() // report the cow and cache numbers of the engine the workload runs
		timed(func() { s.e.note("traced par2 telemetry", s.search(cfg, true, nice.WithTelemetry(reg))) })
		ops += 2
		snap := reg.Snapshot()
		m["search.steals"] = float64(snap.Counter("parallel.steals"))
		m["search.frontier_peak"] = float64(snap.Gauge("parallel.frontier_peak"))
		if mean := snap.Gauge("parallel.seen_shard_mean"); mean > 0 {
			m["search.seen_shard_skew"] = float64(snap.Gauge("parallel.seen_shard_max")) / float64(mean)
		}
		m["search.par_efficiency"] = (float64(par.States) / parWall.Seconds()) /
			(workers * float64(plain.States) / plainWall.Seconds())
	}
	telemetryMetrics(reg.Snapshot(), m)
	symMetrics(plain.SERuns, plain.Classes, plainWall, m)
	return ops
}

// ---- table 2 -------------------------------------------------------

// table2 is the paper's Table 2 as a campaign: the 11 bugs under the 4
// strategies, each search stopping at its first violation.
type table2 struct{}

func (*table2) name() string { return "table2-first-violation" }
func (*table2) why() string {
	return "Table 2 as the CLI user runs it: 44 short cold searches to the first violation, where scenario build, NewSystem, cold discover caches and strategy order dominate and the per-state loop matters little"
}

var table2Strategies = []string{"pkt-seq", "no-delay", "flow-ir", "unusual"}

type table2Session struct {
	seqSession
	e    *env
	jobs []nice.CampaignJob
}

func (w *table2) setup(e *env) (session, error) {
	var names []string
	for _, sc := range scenarios.Table2() {
		names = append(names, sc.Name)
	}
	if e.smoke {
		names = names[:3] // the pyswitch bugs: 12 cells
	}
	jobs := nice.CampaignJobs(names, table2Strategies, 0, false)
	// The seed decides the order the cells run in; every cell is a
	// cold search of its own, so the sums must not depend on it.
	e.rng(2).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	s := &table2Session{e: e, jobs: jobs}
	s.reps = 30
	s.op = func() sample { return s.sweep(&nice.Campaign{}) }
	e.note("warm-up", s.op())
	return s, nil
}

// sweep runs the 44 cells through c (whose hooks the caller may have
// set) and checks every cell against the registry's miss matrix.
func (s *table2Session) sweep(c *nice.Campaign, opts ...nice.RunOption) sample {
	c.Jobs, c.Parallelism, c.Workers, c.ShareCaches = s.jobs, 1, 1, false
	rep := c.Run(background, opts...)
	smp := sample{States: rep.UniqueStates, Transitions: rep.Transitions}
	for i := range rep.Results {
		if err := checkCell(&rep.Results[i]); err != "" && smp.Err == "" {
			smp.Err = err
		}
	}
	return smp
}

// checkCell holds a campaign cell to the registry: found-expected,
// unless the strategy is documented to miss the bug.
func checkCell(res *nice.CampaignResult) string {
	sc, _ := scenarios.Lookup(res.Job.Scenario)
	strat, _ := scenarios.ParseStrategy(res.Job.Strategy)
	want := nice.OutcomeFound
	if sc.Misses[strat] {
		want = nice.OutcomeMissedExpected
	}
	if res.Outcome != want || !res.Complete {
		return fmt.Sprintf("cell %s: outcome %s (complete %v), registry says %s",
			res.Label, res.Outcome, res.Complete, want)
	}
	return ""
}

func (s *table2Session) configs() []namedConfig {
	var cfgs []namedConfig
	for _, j := range s.jobs {
		sc, _ := scenarios.Lookup(j.Scenario)
		strat, _ := scenarios.ParseStrategy(j.Strategy)
		cfgs = append(cfgs, namedConfig{name: j.Scenario + "/" + j.Strategy,
			build: func() *core.Config { return sc.Apply(sc.Config(0), strat) }})
	}
	return cfgs
}

func (s *table2Session) traced(tr *tracer, d time.Duration, m map[string]float64) int {
	cfgs := s.configs()
	tracedLayers(tr, s.e, cfgs, d, m)
	plainWall := timed(func() { s.e.note("traced sweep", s.op()) })
	driverWall := driveConfigs(tr, s.e, "", cfgs, m)
	m["trace.overhead_ratio"] = driverWall.Seconds() / plainWall.Seconds()

	// The hooked sweep: one kept span per cell, and each cell's first
	// violation timed from its job start. Cells run one at a time, so
	// the hooks and the observer share plain variables under one lock.
	reg := nice.NewTelemetry()
	var (
		mu             sync.Mutex
		jobSpan        int
		jobStart       int64
		firstSeen      bool
		firstViolation time.Duration
		seRuns         int64
	)
	root := tr.begin("campaign.sweep", "sweep", -1)
	c := &nice.Campaign{
		OnJobStart: func(i int, job nice.CampaignJob) {
			mu.Lock()
			defer mu.Unlock()
			jobSpan = tr.begin("campaign.job", job.Scenario+"/"+job.Strategy, root)
			jobStart, firstSeen = tr.now(), false
		},
		OnJobDone: func(i int, res nice.CampaignResult) {
			mu.Lock()
			defer mu.Unlock()
			tr.end(jobSpan)
			if res.Outcome == nice.OutcomeFound {
				m["campaign.transitions_to_first_violation"] += float64(res.Transitions)
			}
			seRuns += res.SERuns
		},
	}
	obs := nice.ObserverFuncs{Violation: func(nice.Violation) {
		mu.Lock()
		defer mu.Unlock()
		if !firstSeen {
			firstSeen = true
			firstViolation += time.Duration(tr.now() - jobStart)
		}
	}}
	s.e.note("traced hooked sweep", s.sweep(c, nice.WithObserver(obs), nice.WithTelemetry(reg)))
	sweepWall := tr.end(root)
	jobs := tr.agg("campaign.job")
	m["campaign.job.ns"] = float64(jobs.TotalNS) / float64(jobs.Calls)
	m["campaign.overhead_ratio"] = float64(sweepWall.Nanoseconds()) / float64(jobs.TotalNS)
	m["campaign.first_violation_s"] = firstViolation.Seconds()
	telemetryMetrics(reg.Snapshot(), m)
	symMetrics(seRuns, 0, plainWall, m)
	return 2
}

// ---- concolic ------------------------------------------------------

// concolic is the model-checking × symbolic-execution feedback loop on
// three SE-enabled scenarios, from cold caches.
type concolic struct{}

func (*concolic) name() string { return "concolic-cold" }
func (*concolic) why() string {
	return "the concolic feedback loop from cold caches on three SE scenarios: the one workload where internal/sym and internal/concolic are ~10% of an op instead of ~0.1%"
}

type concolicSession struct {
	seqSession
	e    *env
	trio []namedConfig
}

func (w *concolic) setup(e *env) (session, error) {
	s := &concolicSession{e: e}
	for _, t := range []struct {
		scenario string
		scale    int
	}{{"pingpong-se", 0}, {"loadbalancer-bench", 3}, {"pyswitch-bench", 3}} {
		sc, ok := scenarios.Lookup(t.scenario)
		if !ok {
			return nil, fmt.Errorf("scenario %q not registered", t.scenario)
		}
		if e.smoke && t.scale > 0 {
			t.scale--
		}
		s.trio = append(s.trio, namedConfig{name: t.scenario, build: func() *core.Config {
			cfg := sc.Config(t.scale)
			cfg.StopAtFirstViolation = false
			return cfg
		}})
	}
	s.reps = 40
	s.op = func() sample { return s.loopTrio() }
	e.note("warm-up", s.op())
	return s, nil
}

// loopTrio runs the concolic loop over the three scenarios, each from
// cold caches.
func (s *concolicSession) loopTrio(extra ...nice.RunOption) sample {
	var smp sample
	for _, nc := range s.trio {
		opts := append([]nice.RunOption{nice.WithEngine(nice.ConcolicLoop()),
			nice.WithWorkers(workers), nice.WithSymWorkers(workers)}, extra...)
		r := nice.Run(background, nc.build(), opts...)
		smp.States += r.UniqueStates
		smp.Transitions += r.Transitions
		smp.SERuns += r.SERuns
		smp.Classes += r.PacketClasses
		if err := s.e.check(nc.name, verdictOf(r, false, true)); err != "" && smp.Err == "" {
			smp.Err = err
		}
	}
	return smp
}

func (s *concolicSession) traced(tr *tracer, d time.Duration, m map[string]float64) int {
	tracedLayers(tr, s.e, s.trio, d, m)
	var loop sample
	plainWall := timed(func() { loop = s.e.note("traced loop", s.loopTrio()) })
	m["sym.classes_per_s"] = float64(loop.Classes) / plainWall.Seconds()

	reg := nice.NewTelemetry()
	telWall := timed(func() { s.e.note("traced telemetry", s.loopTrio(nice.WithTelemetry(reg))) })
	m["telemetry.overhead_ratio"] = telWall.Seconds() / plainWall.Seconds()
	snap := reg.Snapshot()
	telemetryMetrics(snap, m)
	m["concolic.feedback_rounds"] = float64(snap.Counter("sym.feedback_rounds"))

	// The eager reference: the same three scenarios on the sequential
	// DFS, which discovers on demand only.
	var eagerStates, eagerClasses int64
	eagerWall := timed(func() {
		for _, nc := range s.trio {
			r := nice.Run(background, nc.build())
			eagerStates += r.UniqueStates
			eagerClasses += r.PacketClasses
		}
	})
	m["concolic.loop_vs_eager_states"] = float64(loop.States) / float64(eagerStates)
	m["concolic.classes_vs_eager"] = float64(loop.Classes) / float64(eagerClasses)

	driverWall := driveConfigs(tr, s.e, "", s.trio, m)
	m["trace.overhead_ratio"] = driverWall.Seconds() / eagerWall.Seconds()
	symMetrics(loop.SERuns, loop.Classes, plainWall, m)
	return 2
}

// ---- DPOR ----------------------------------------------------------

// dpor is the dpor/linear6-oneway shape of internal/bench rebuilt from
// public packages: a line of switches with one host each, even hosts
// pinging their odd neighbour once, the repaired pyswitch, SE off.
type dpor struct{}

func (*dpor) name() string { return "dpor-linear6" }
func (*dpor) why() string {
	return "sequential DFS under dynamic partial-order reduction on six switches: internal/core/dpor*.go does the bookkeeping; shows the reduction's value (states explored) and its cost (time, ~13x heap)"
}

// linearOneWay builds the shape at n switches.
func linearOneWay(n int) *core.Config {
	t, _ := topo.LinearHosts(n, 1)
	all := t.Hosts()
	var hh []*hosts.Host
	for i, self := range all {
		j := i ^ 1
		if j >= len(all) {
			j = i - 1
		}
		budget := 1 - i%2
		seed := scenarios.PingBetween(self, all[j])
		h := hosts.NewClient(self, budget, 0, seed)
		h.Repertoire = append(h.Repertoire[:0], seed)
		hh = append(hh, h)
	}
	return &core.Config{Topo: t, App: pyswitch.New(pyswitch.Fixed, t), Hosts: hh,
		Properties: []core.Property{props.NewNoForgottenPackets()}, DisableSE: true}
}

type dporSession struct {
	seqSession
	e   *env
	cfg namedConfig
}

func (w *dpor) setup(e *env) (session, error) {
	n := 6
	if e.smoke {
		n = 4
	}
	s := &dporSession{e: e, cfg: namedConfig{name: fmt.Sprintf("linear%d-oneway", n),
		build: func() *core.Config { return linearOneWay(n) }}}
	cfg := s.cfg.build()
	s.reps = 3
	s.op = func() sample { return s.search(cfg, true) }
	e.note("warm-up", s.op())
	return s, nil
}

// search runs the shape reduced or unreduced. The unreduced search is
// the model's whole state space, so its counts are pinned exactly;
// under DPOR the states explored are the metric, and only the
// (empty) violation set is pinned.
func (s *dporSession) search(cfg *core.Config, reduced bool, extra ...nice.RunOption) sample {
	name := "unreduced"
	if reduced {
		name = "reduced"
		extra = append(extra, nice.WithReduction(nice.DPOR))
	}
	r := nice.Run(background, cfg, extra...)
	return sample{States: r.UniqueStates, Transitions: r.Transitions,
		Err: s.e.check(name, verdictOf(r, !reduced, false))}
}

// peakHeap is an observer keeping the final progress snapshot's peak
// in-use heap.
type peakHeap struct {
	mu   sync.Mutex
	peak uint64
}

func (p *peakHeap) OnViolation(nice.Violation) {}
func (p *peakHeap) OnProgress(pr nice.Progress) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr.PeakHeapInUse > p.peak {
		p.peak = pr.PeakHeapInUse
	}
}

func (s *dporSession) traced(tr *tracer, d time.Duration, m map[string]float64) int {
	cfgs := []namedConfig{s.cfg}
	tracedLayers(tr, s.e, cfgs, d, m)
	cfg := s.cfg.build()
	plainWall := timed(func() { s.e.note("traced reduced", s.op()) })

	reg := nice.NewTelemetry()
	var redHeap, fullHeap peakHeap
	heapOpts := func(p *peakHeap) []nice.RunOption {
		return []nice.RunOption{nice.WithObserver(p), nice.WithProgressEvery(20 * time.Millisecond)}
	}
	var reduced, full sample
	telWall := timed(func() {
		reduced = s.e.note("traced telemetry", s.search(cfg, true, append(heapOpts(&redHeap), nice.WithTelemetry(reg))...))
	})
	m["telemetry.overhead_ratio"] = telWall.Seconds() / plainWall.Seconds()
	fullWall := timed(func() { full = s.e.note("traced unreduced", s.search(cfg, false, heapOpts(&fullHeap)...)) })
	snap := reg.Snapshot()
	for _, c := range []string{"sleep_hits", "backtrack_points", "pruned_transitions", "revisit_reexpansions"} {
		m["core.dpor."+c] = float64(snap.Counter("dpor." + c))
	}
	m["core.dpor.reduction_ratio"] = float64(reduced.States) / float64(full.States)
	if fullHeap.peak > 0 {
		m["core.dpor.heap_ratio"] = float64(redHeap.peak) / float64(fullHeap.peak)
	}

	// The driver does not reduce: its spans give the cost per call of
	// the primitives on this model, over the unreduced space.
	driverWall := driveConfigs(tr, s.e, "unreduced", cfgs, m)
	m["trace.overhead_ratio"] = driverWall.Seconds() / fullWall.Seconds()
	telemetryMetrics(snap, m)
	return 3
}

// ---- helpers shared by the traced runs -----------------------------

// tracedLayers runs the parts of a traced run every workload shares:
// the canon and openflow loops on seeded inputs, and the per-config
// build, boot and cold-exploration timings.
func tracedLayers(tr *tracer, e *env, cfgs []namedConfig, d time.Duration, m map[string]float64) {
	benchLayers(e.rng(1), d/200, m)
	reps := 3
	if len(cfgs) > 3 {
		reps = 1
	}
	benchConfigLayers(tr, cfgs, reps, m)
}

// driveConfigs searches every configuration with the traced driver and
// derives the core.* span metrics. When pin names one of the workload's
// exact pins, the driver is held to it: it must visit exactly the
// states and transitions nice.Run does.
func driveConfigs(tr *tracer, e *env, pin string, cfgs []namedConfig, m map[string]float64) time.Duration {
	var wall time.Duration
	var counts driverCounts
	var covered int64
	for _, nc := range cfgs {
		d := newDriver(tr, nc.build(), nc.name)
		wall += timed(func() { d.run(-1) })
		covered += tr.covered[d.root]
		counts.Transitions += d.counts.Transitions
		counts.UniqueStates += d.counts.UniqueStates
		counts.Revisits += d.counts.Revisits
		counts.EnabledSum += d.counts.EnabledSum
		if pin != "" {
			v := verdictOfKeys(violationKeys(d.violations))
			v.States, v.Transitions = d.counts.UniqueStates, d.counts.Transitions
			e.note("traced driver", sample{Err: e.check(pin, v)})
		}
	}
	for _, name := range []string{"fingerprint", "apply", "enabled", "clone", "release",
		"check_events", "check_quiescence", "seen_probe"} {
		a := tr.agg("core." + name)
		m["core."+name+".ns"] = a.meanSelfNS()
		m["core."+name+".calls"] = float64(a.Calls)
		m["core."+name+".share"] = float64(a.SelfNS) / float64(wall.Nanoseconds())
	}
	for _, kind := range applyKindName {
		m["core.apply."+kind+".ns"] = tr.agg("core.apply." + kind).meanSelfNS()
	}
	m["core.new_system.ns"] = tr.agg("core.new_system").meanSelfNS()
	m["core.transitions"] = float64(counts.Transitions)
	m["core.unique_states"] = float64(counts.UniqueStates)
	m["core.revisits"] = float64(counts.Revisits)
	if arrivals := counts.UniqueStates + counts.Revisits; arrivals > 0 {
		m["core.revisit_ratio"] = float64(counts.Revisits) / float64(arrivals)
	}
	if counts.UniqueStates > 0 {
		m["core.enabled_per_state"] = float64(counts.EnabledSum) / float64(counts.UniqueStates)
	}
	m["trace.coverage"] = float64(covered) / float64(wall.Nanoseconds())
	return wall
}

// telemetryMetrics reads the cow, cache and solver counters of a
// registry a search (or several) published into.
func telemetryMetrics(snap *nice.TelemetrySnapshot, m map[string]float64) {
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	forks := snap.Counter("cow.forks")
	m["cow.forks"] = float64(forks)
	m["cow.forks_warm_ratio"] = ratio(snap.Counter("cow.forks_warm"), forks)
	m["cow.copies_per_fork"] = ratio(snap.Counter("cow.ensure_owned_copies"), forks)
	m["cow.pool_recycle_ratio"] = ratio(snap.Counter("cow.pool_recycles"), snap.Counter("cow.releases"))
	hits := snap.Counter("cache.packets_hits") + snap.Counter("cache.stats_hits")
	lookups := hits + snap.Counter("cache.packets_misses") + snap.Counter("cache.stats_misses")
	m["core.cache.lookups"] = float64(lookups)
	m["core.cache.hit_ratio"] = ratio(hits, lookups)
	calls := snap.Counter("sym.solver_calls")
	m["sym.solver_calls"] = float64(calls)
	m["sym.memo_hit_ratio"] = ratio(snap.Counter("sym.memo_hits"), calls)
}

// symMetrics files the symbolic-execution counts of the untraced op
// (from its reports: a registry's exploration and class counters
// restart with every cache set attached) and the estimated share of
// the op's wall that cold explorations account for.
func symMetrics(seRuns, classes int64, wall time.Duration, m map[string]float64) {
	m["core.se_runs"] = float64(seRuns)
	m["sym.classes"] = float64(classes)
	m["sym.est_share"] = float64(seRuns) * m["sym.explore.cold.ns"] / float64(wall.Nanoseconds())
}
