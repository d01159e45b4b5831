package core

import (
	"runtime"

	"github.com/nice-go/nice/internal/telemetry"
)

// depthBounds are the fixed buckets of the per-engine trace-depth
// histograms (the default depth bound is a few hundred; deeper lands in
// the overflow bucket).
var depthBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// SearchTelemetry is one engine's pre-resolved metric handle bundle. A
// Session resolves it once at search start (newSearchTelemetry takes the
// registry lock per handle) and then touches only lock-free atomics; a
// nil bundle — no registry attached — makes every method a single
// branch, the disabled fast path the overhead benchmark gates.
//
// The Session already keeps the report counters on the hot path, so the
// bundle is synced from them at progress-snapshot and stop time
// (syncProgress, searchStop) instead of double-counting per transition;
// only the signals no report counter carries — depth observations and
// violations — update live.
type SearchTelemetry struct {
	scope *telemetry.Scope

	transitions  *telemetry.Counter
	unique       *telemetry.Counter
	revisits     *telemetry.Counter
	truncated    *telemetry.Counter
	seRuns       *telemetry.Counter
	violations   *telemetry.Counter
	steals       *telemetry.Counter
	frontier     *telemetry.Gauge
	frontierPeak *telemetry.Gauge
	shardMax     *telemetry.Gauge
	shardMean    *telemetry.Gauge
	depth        *telemetry.Histogram

	// lastBatch is the transition count at the previous expand-batch
	// trace event. Only Session.emit touches it, from one goroutine at a
	// time.
	lastBatch int64
}

// newSearchTelemetry resolves the per-engine handle bundle under the
// engine's scope, or nil when no registry is attached.
func newSearchTelemetry(reg *telemetry.Registry, engine string) *SearchTelemetry {
	if reg == nil {
		return nil
	}
	sc := reg.Scope(engine)
	return &SearchTelemetry{
		scope:        sc,
		transitions:  sc.Counter("transitions"),
		unique:       sc.Counter("unique_states"),
		revisits:     sc.Counter("revisits"),
		truncated:    sc.Counter("truncated"),
		seRuns:       sc.Counter("se_runs"),
		violations:   sc.Counter("violations"),
		steals:       sc.Counter("steals"),
		frontier:     sc.Gauge("frontier"),
		frontierPeak: sc.Gauge("frontier_peak"),
		shardMax:     sc.Gauge("seen_shard_max"),
		shardMean:    sc.Gauge("seen_shard_mean"),
		depth:        sc.Histogram("depth", depthBounds),
	}
}

// searchStart emits the search-start trace event.
func (t *SearchTelemetry) searchStart() {
	if t == nil {
		return
	}
	t.scope.Emit(telemetry.TraceSearchStart, 0, "")
}

// searchStop syncs the final report counters and emits the search-stop
// trace event (note = stop reason, "complete" when none).
func (t *SearchTelemetry) searchStop(reason StopReason, r *Report) {
	if t == nil {
		return
	}
	t.transitions.Store(r.Transitions)
	t.unique.Store(r.UniqueStates)
	t.revisits.Store(r.Revisits)
	t.truncated.Store(r.Truncated)
	t.seRuns.Store(r.SERuns)
	t.violations.Store(int64(len(r.Violations)))
	note := string(reason)
	if reason == StopNone {
		note = "complete"
	}
	t.scope.Emit(telemetry.TraceSearchStop, r.UniqueStates, note)
}

// syncProgress stores a progress snapshot's counters (and the frontier's
// steal count, which no snapshot field carries) into the registry and
// emits a rationed expand-batch trace event carrying the transition
// delta since the previous snapshot.
func (t *SearchTelemetry) syncProgress(p Progress, steals int64) {
	if t == nil {
		return
	}
	t.steals.Store(steals)
	t.transitions.Store(p.Transitions)
	t.unique.Store(p.UniqueStates)
	t.revisits.Store(p.Revisits)
	t.truncated.Store(p.Truncated)
	t.seRuns.Store(p.SERuns)
	t.frontier.Set(p.Frontier)
	t.frontierPeak.SetMax(p.Frontier)
	if d := p.Transitions - t.lastBatch; d > 0 {
		t.lastBatch = p.Transitions
		t.scope.Emit(telemetry.TraceExpandBatch, d, "")
	}
}

// observeDepth records one reached state's trace depth.
func (t *SearchTelemetry) observeDepth(depth int) {
	if t == nil {
		return
	}
	t.depth.Observe(int64(depth))
}

// violation counts a recorded violation and traces it.
func (t *SearchTelemetry) violation(property string) {
	if t == nil {
		return
	}
	t.violations.Inc()
	t.scope.Emit(telemetry.TraceViolation, 1, property)
}

// budget traces a budget/cancellation drawdown aborting the search.
func (t *SearchTelemetry) budget(reason StopReason, transitions int64) {
	if t == nil {
		return
	}
	t.scope.Emit(telemetry.TraceBudget, transitions, string(reason))
}

// SetShardOccupancy records the seen-set's max and mean shard sizes —
// the shard-contention signal, captured once at search stop.
func (t *SearchTelemetry) SetShardOccupancy(max, mean int64) {
	if t == nil {
		return
	}
	t.shardMax.Set(max)
	t.shardMean.Set(mean)
}

// heapPeak tracks the peak in-use heap across progress samples. sample
// reads runtime.MemStats (a stop-the-world-ish call), so it runs only
// on the rationed snapshot path, never per transition.
type heapPeak struct {
	peak uint64
}

// sample reads the current in-use heap and returns the running peak.
func (h *heapPeak) sample() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapInuse > h.peak {
		h.peak = ms.HeapInuse
	}
	return h.peak
}

// systemTelemetry is the copy-on-write instrumentation bundle shared by
// every System of one search (Clone propagates the pointer to forks).
// The counters sit on the internal/cow protocol's call sites: forks,
// lazy ensureOwned component copies, releases and pool recycles — plus
// forks_warm, the fingerprint-cache hit signal (a fork that found every
// memoized component key already warm skipped the warming walk).
type systemTelemetry struct {
	forks     *telemetry.Counter
	forksWarm *telemetry.Counter
	copies    *telemetry.Counter
	releases  *telemetry.Counter
	recycles  *telemetry.Counter
}

// newSystemTelemetry resolves the cow-scope handles, or nil when no
// registry is attached.
func newSystemTelemetry(reg *telemetry.Registry) *systemTelemetry {
	if reg == nil {
		return nil
	}
	sc := reg.Scope("cow")
	return &systemTelemetry{
		forks:     sc.Counter("forks"),
		forksWarm: sc.Counter("forks_warm"),
		copies:    sc.Counter("ensure_owned_copies"),
		releases:  sc.Counter("releases"),
		recycles:  sc.Counter("pool_recycles"),
	}
}
