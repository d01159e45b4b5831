package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units, directions and
// bounds; TestBenchmarkJSON keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median an end-to-end metric
	// may worsen by before a change counts as a regression. Per-layer
	// metrics explain, they do not gate, and have none.
	Bound float64
}

// endToEnd are the metrics a user of the checker sees. Every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verdict_s", "s", "lower", 0.25},
	{"states_per_s", "1/s", "higher", 0.25},
	{"verdicts_per_s", "1/s", "higher", 0.25},
	{"states_explored", "count", "lower", 0.02},
	{"transitions_to_verdict", "count", "lower", 0.02},
	{"allocs_per_state", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

var endToEndByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	return m
}()

// perLayer are the metrics of single layers, from the traced run. A
// layer a workload never enters reports 0 there — that is the
// attribution: search.* is nonzero only on pyswitch-full-par2,
// service.* only on service-2tenants, core.dpor.* only on dpor-linear6.
var perLayer = []metricDef{
	// core: the model checker's primitives, spans from driver.go.
	{Name: "core.fingerprint.ns", Unit: "ns", Better: "lower"},
	{Name: "core.fingerprint.calls", Unit: "count", Better: "lower"},
	{Name: "core.fingerprint.share", Unit: "ratio", Better: "lower"},
	{Name: "core.apply.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.calls", Unit: "count", Better: "lower"},
	{Name: "core.apply.share", Unit: "ratio", Better: "lower"},
	{Name: "core.apply.send.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.send_reply.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.process_pkt.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.process_of.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.ctrl_dispatch.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.discover_packets.ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply.env.ns", Unit: "ns", Better: "lower"},
	{Name: "core.enabled.ns", Unit: "ns", Better: "lower"},
	{Name: "core.enabled.share", Unit: "ratio", Better: "lower"},
	{Name: "core.clone.ns", Unit: "ns", Better: "lower"},
	{Name: "core.clone.share", Unit: "ratio", Better: "lower"},
	{Name: "core.release.ns", Unit: "ns", Better: "lower"},
	{Name: "core.release.share", Unit: "ratio", Better: "lower"},
	{Name: "core.check_events.ns", Unit: "ns", Better: "lower"},
	{Name: "core.check_events.share", Unit: "ratio", Better: "lower"},
	{Name: "core.check_quiescence.ns", Unit: "ns", Better: "lower"},
	{Name: "core.check_quiescence.calls", Unit: "count", Better: "lower"},
	{Name: "core.check_quiescence.share", Unit: "ratio", Better: "lower"},
	{Name: "core.seen_probe.ns", Unit: "ns", Better: "lower"},
	{Name: "core.seen_probe.share", Unit: "ratio", Better: "lower"},
	{Name: "core.new_system.ns", Unit: "ns", Better: "lower"},
	{Name: "core.transitions", Unit: "count", Better: "lower"},
	{Name: "core.unique_states", Unit: "count", Better: "lower"},
	{Name: "core.revisits", Unit: "count", Better: "lower"},
	{Name: "core.revisit_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.enabled_per_state", Unit: "count", Better: "lower"},
	{Name: "core.cache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.cache.lookups", Unit: "count", Better: "lower"},
	{Name: "core.se_runs", Unit: "count", Better: "lower"},
	{Name: "core.dpor.sleep_hits", Unit: "count", Better: "higher"},
	{Name: "core.dpor.backtrack_points", Unit: "count", Better: "lower"},
	{Name: "core.dpor.pruned_transitions", Unit: "count", Better: "higher"},
	{Name: "core.dpor.revisit_reexpansions", Unit: "count", Better: "lower"},
	{Name: "core.dpor.reduction_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.dpor.heap_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.replay.ns_per_transition", Unit: "ns", Better: "lower"},
	// cow: the copy-on-write state layer, from its telemetry scope.
	{Name: "cow.forks", Unit: "count", Better: "lower"},
	{Name: "cow.forks_warm_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cow.copies_per_fork", Unit: "count", Better: "lower"},
	{Name: "cow.pool_recycle_ratio", Unit: "ratio", Better: "higher"},
	// canon and openflow: timed loops on seeded inputs (layers.go).
	{Name: "canon.hasher.mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "canon.hash128.ns", Unit: "ns", Better: "lower"},
	{Name: "canon.string.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.lookup.r8.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.lookup.r64.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.install.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.process_packet.hit.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.process_packet.miss.ns", Unit: "ns", Better: "lower"},
	{Name: "openflow.canonical_key.ns", Unit: "ns", Better: "lower"},
	// scenarios, sym and concolic.
	{Name: "scenarios.build.ns", Unit: "ns", Better: "lower"},
	{Name: "scenarios.wire_compile.ns", Unit: "ns", Better: "lower"},
	{Name: "sym.explore.cold.ns", Unit: "ns", Better: "lower"},
	{Name: "sym.paths_per_explore", Unit: "count", Better: "lower"},
	{Name: "sym.solver_calls", Unit: "count", Better: "lower"},
	{Name: "sym.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sym.classes", Unit: "count", Better: "higher"},
	{Name: "sym.classes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sym.est_share", Unit: "ratio", Better: "lower"},
	{Name: "concolic.feedback_rounds", Unit: "count", Better: "lower"},
	{Name: "concolic.loop_vs_eager_states", Unit: "ratio", Better: "lower"},
	{Name: "concolic.classes_vs_eager", Unit: "ratio", Better: "higher"},
	// search: the parallel engine, from its telemetry scope.
	{Name: "search.steals", Unit: "count", Better: "lower"},
	{Name: "search.frontier_peak", Unit: "count", Better: "lower"},
	{Name: "search.seen_shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "search.par_efficiency", Unit: "ratio", Better: "higher"},
	// campaign: nice.Campaign's job hooks.
	{Name: "campaign.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "campaign.job.ns", Unit: "ns", Better: "lower"},
	{Name: "campaign.first_violation_s", Unit: "s", Better: "lower"},
	{Name: "campaign.transitions_to_first_violation", Unit: "count", Better: "lower"},
	// service: client-side spans per job plus JobStatus timestamps.
	{Name: "service.verdict.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.verdict.ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.submit.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.submit.ms_p90", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.run.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.first_violation.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.stream_tail.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.artifact_get.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.replay.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "service.events_per_job", Unit: "count", Better: "lower"},
	{Name: "service.artifact_bytes_per_job", Unit: "count", Better: "lower"},
	{Name: "service.rejected", Unit: "count", Better: "lower"},
	{Name: "service.overhead_ratio", Unit: "ratio", Better: "lower"},
	// Validity of the traced run itself; not optimisation targets.
	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}
