package nice

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// CampaignJob names one search of a campaign: a registered scenario at
// a scale, under one Table 2 strategy column, buggy or repaired.
type CampaignJob struct {
	// Scenario is the registry name (scenarios.Lookup key).
	Scenario string `json:"scenario"`
	// Scale is the scenario's scale knob (0 = scenario default).
	Scale int `json:"scale,omitempty"`
	// Strategy is the search strategy column ("" = pkt-seq).
	Strategy string `json:"strategy,omitempty"`
	// Fixed checks the repaired application instead of the buggy one.
	Fixed bool `json:"fixed,omitempty"`
}

func (j CampaignJob) label() string {
	s := j.Scenario
	if j.Scale > 0 {
		// Only claim a scale the scenario will actually apply — a
		// campaign-wide scale over mixed jobs leaves scale-less
		// scenarios at their fixed size.
		if sc, ok := scenarios.Lookup(j.Scenario); !ok || sc.Scale(j.Scale) > 0 {
			s = fmt.Sprintf("%s(%d)", s, j.Scale)
		}
	}
	if strat, ok := scenarios.ParseStrategy(j.Strategy); ok {
		s += "/" + strat.String()
	} else {
		// Keep the unknown spelling so the error row names what the
		// job actually asked for.
		s += "/" + j.Strategy
	}
	if j.Fixed {
		s += "/fixed"
	}
	return s
}

// Campaign fans a set of scenario × strategy jobs through Run
// concurrently, under shared budgets, and merges the outcomes into one
// report — the fleet mode behind `nice run-all`.
//
// Budgets compose per job and campaign-wide: JobTimeout / JobMaxStates
// bound each search individually, TotalMaxStates / TotalMaxTransitions
// are drawn down by every completed search (later jobs start with
// whatever remains; concurrent jobs may collectively overshoot by at
// most Parallelism × the per-job overshoot), and cancelling ctx stops
// everything — each cut-short search still reports a partial,
// replayable result.
type Campaign struct {
	// Jobs lists the searches to run. CampaignJobs builds the
	// scenario × strategy cross product.
	Jobs []CampaignJob

	// Parallelism bounds the number of concurrently running jobs
	// (0 or 1 = one at a time).
	Parallelism int

	// Workers is the per-job engine worker count, as in WithWorkers
	// (0 = all CPUs, 1 = the sequential reference checker).
	Workers int

	// JobTimeout bounds each job's wall clock (0 = unbounded).
	JobTimeout time.Duration
	// JobMaxStates bounds each job's unique states (0 = unbounded).
	JobMaxStates int64

	// TotalMaxStates / TotalMaxTransitions are shared campaign-wide
	// budgets (0 = unbounded).
	TotalMaxStates      int64
	TotalMaxTransitions int64

	// ShareCaches shares one discover-cache set between jobs of the
	// same scenario/scale/fixed triple, so the strategy columns of one
	// workload reuse each other's symbolic-execution results.
	ShareCaches bool

	// CachePrune bounds each shared discover-cache set when ShareCaches
	// is on: after a job finishes, a set grown past CachePrune entries
	// is trimmed back to it, least recently used first
	// (Caches.WithCapacity), counted and traced as cache evictions. The
	// bound is lifted again before the next job, so a search never loses
	// entries it is using. Jobs that run concurrently on one set
	// (Parallelism > 1) can be trimmed mid-search; see Caches for what
	// that can cost a frontier engine. 0 = unbounded.
	CachePrune int

	// OnJobStart / OnJobDone, when non-nil, observe the job lifecycle:
	// OnJobStart fires as a worker picks up Jobs[i], OnJobDone after its
	// result is final. Both may be called concurrently from different
	// workers (Parallelism > 1) and must be safe for concurrent use.
	OnJobStart func(i int, job CampaignJob)
	OnJobDone  func(i int, res CampaignResult)

	// Telemetry, when non-nil, receives campaign-level aggregation under
	// the "campaign" scope: job and outcome counters, cumulative state
	// and transition counts, live budget-drawdown gauges and per-job
	// trace events. Engine-level metrics stay per job — each job runs
	// against a private registry surfaced through CampaignResult; pass
	// WithTelemetry in Run's extra options to redirect every job's
	// engine metrics to one registry you own instead.
	Telemetry *Telemetry
}

// CampaignJobs builds the scenario × strategy cross product with a
// fixed scale: the common way to fill Campaign.Jobs.
func CampaignJobs(scenarioNames, strategies []string, scale int, fixed bool) []CampaignJob {
	if len(strategies) == 0 {
		strategies = []string{""}
	}
	jobs := make([]CampaignJob, 0, len(scenarioNames)*len(strategies))
	for _, sc := range scenarioNames {
		for _, st := range strategies {
			jobs = append(jobs, CampaignJob{Scenario: sc, Scale: scale, Strategy: st, Fixed: fixed})
		}
	}
	return jobs
}

// Job outcomes.
const (
	// OutcomeFound: the expected property violation was found.
	OutcomeFound = "found-expected"
	// OutcomeClean: no violation, none expected.
	OutcomeClean = "clean"
	// OutcomeMissedExpected: no violation, and this strategy column is
	// documented to miss this scenario's bug (a Table 2 blank cell).
	OutcomeMissedExpected = "missed-expected"
	// OutcomeMissed: the search completed without finding the
	// scenario's expected violation — an unexpected miss.
	OutcomeMissed = "missed"
	// OutcomeUnexpected: a violation was found where none (or a
	// documented miss) was expected.
	OutcomeUnexpected = "unexpected-violation"
	// OutcomePartial: a per-job budget, deadline or cancellation cut
	// the search short before it could decide.
	OutcomePartial = "partial"
	// OutcomeStarved: the campaign-wide TotalMaxStates /
	// TotalMaxTransitions drawdown ran out before or during this job —
	// the job is undecided because earlier jobs consumed the shared
	// budget, not because of its own limits or a real violation.
	OutcomeStarved = "budget-starved"
	// OutcomeError: the job could not run (unknown scenario, no
	// repaired variant, unknown strategy).
	OutcomeError = "error"
)

// CampaignResult is one job's outcome.
type CampaignResult struct {
	Job   CampaignJob `json:"job"`
	Label string      `json:"label"`

	// Expected names the property the job was expected to violate
	// ("" for expected-clean searches, including all fixed jobs);
	// ExpectedMiss marks strategy columns documented to miss it.
	Expected     string `json:"expected,omitempty"`
	ExpectedMiss bool   `json:"expected_miss,omitempty"`

	// Outcome is one of the Outcome* constants; Err carries the
	// detail for OutcomeError.
	Outcome string `json:"outcome"`
	Err     string `json:"error,omitempty"`

	// Violated lists the distinct violated property names; First is
	// the first violation's message.
	Violated []string `json:"violated,omitempty"`
	First    string   `json:"first_violation,omitempty"`

	// Search counters, from the underlying Report.
	Transitions  int64         `json:"transitions"`
	UniqueStates int64         `json:"unique_states"`
	SERuns       int64         `json:"se_runs"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	Engine       string        `json:"engine,omitempty"`
	Complete     bool          `json:"complete"`
	StopReason   string        `json:"stop_reason,omitempty"`

	// StatesPerSec is the job's unique-state throughput — the
	// campaign-level view of the copy-on-write forking win, without a
	// separate bench run.
	StatesPerSec float64 `json:"states_per_sec"`
	// PeakHeapBytes is the peak in-use heap sampled while the job ran.
	// The measurement is process-wide: jobs running concurrently
	// (Parallelism > 1) share the heap, so treat it as an envelope.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// CacheHitRate is the discover-cache hit fraction over the job's
	// lookups (0 when the job made none).
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// COWForks / COWCopies count the job's copy-on-write state forks and
	// lazy component copies. Zero when the job ran under a
	// caller-supplied telemetry registry — the counts then accumulate
	// there instead.
	COWForks  int64 `json:"cow_forks,omitempty"`
	COWCopies int64 `json:"cow_copies,omitempty"`
}

// ok reports whether the outcome matches expectations (partial results
// are inconclusive, not failures).
func (r *CampaignResult) ok() bool {
	switch r.Outcome {
	case OutcomeFound, OutcomeClean, OutcomeMissedExpected, OutcomePartial, OutcomeStarved:
		return true
	}
	return false
}

// CampaignReport merges every job's result.
type CampaignReport struct {
	Results []CampaignResult `json:"results"`

	// Merged counters across all jobs.
	Jobs         int           `json:"jobs"`
	Transitions  int64         `json:"transitions"`
	UniqueStates int64         `json:"unique_states"`
	Violations   int           `json:"violations"`
	Unexpected   int           `json:"unexpected"`
	Partial      int           `json:"partial"`
	Starved      int           `json:"starved,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

// OK reports whether every job's outcome matched its expectation
// (inconclusive partial and budget-starved results count as OK; see
// Partial and Starved).
func (r *CampaignReport) OK() bool { return r.Unexpected == 0 }

// ExitCode maps the merged report onto the `nice run-all` process exit
// contract, so scripts can tell a campaign that ran out of shared
// budget from one that found a real problem: 0 = every outcome as
// expected; 1 = an unexpected outcome (missed bug, unexpected
// violation, job error); 4 = expectations met so far but the
// campaign-wide budget drawdown starved at least one job; 3 =
// expectations met so far but some searches were cut short by per-job
// budgets or deadlines (inconclusive).
func (r *CampaignReport) ExitCode() int {
	switch {
	case !r.OK():
		return 1
	case r.Starved > 0:
		return 4
	case r.Partial > 0:
		return 3
	}
	return 0
}

// WriteJSON writes the merged report as indented JSON.
func (r *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText writes the merged report as an aligned text table plus a
// one-line summary.
func (r *CampaignReport) WriteText(w io.Writer) {
	width := len("scenario")
	for i := range r.Results {
		if n := len(r.Results[i].Label); n > width {
			width = n
		}
	}
	fmt.Fprintf(w, "%-*s  %-20s %12s %12s %10s %10s %9s %5s  %s\n",
		width, "scenario", "outcome", "transitions", "states", "states/s", "elapsed", "peak-heap", "hit%", "detail")
	for i := range r.Results {
		res := &r.Results[i]
		detail := ""
		switch {
		case res.Err != "":
			detail = res.Err
		case len(res.Violated) > 0:
			detail = "violates " + res.Violated[0]
			if len(res.Violated) > 1 {
				detail += fmt.Sprintf(" (+%d more)", len(res.Violated)-1)
			}
		case res.Outcome == OutcomePartial, res.Outcome == OutcomeStarved:
			detail = "stopped: " + res.StopReason
		}
		fmt.Fprintf(w, "%-*s  %-20s %12d %12d %10.0f %10s %9s %4.0f%%  %s\n",
			width, res.Label, res.Outcome, res.Transitions, res.UniqueStates,
			res.StatesPerSec, res.Elapsed.Round(time.Millisecond),
			formatBytes(res.PeakHeapBytes), res.CacheHitRate*100, detail)
	}
	fmt.Fprintf(w, "\n%d jobs: %d violations, %d unexpected, %d partial — %d transitions, %d unique states in %s\n",
		r.Jobs, r.Violations, r.Unexpected, r.Partial,
		r.Transitions, r.UniqueStates, r.Elapsed.Round(time.Millisecond))
}

// formatBytes renders a byte count compactly for the text table.
func formatBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// campaignTelemetry is the campaign-scope handle bundle on the
// campaign-wide registry. Without one (no Campaign.Telemetry) the scope
// and every handle are nil, and nil handles are no-ops.
type campaignTelemetry struct {
	scope       *telemetry.Scope
	jobs        *telemetry.Counter
	violations  *telemetry.Counter
	states      *telemetry.Counter
	transitions *telemetry.Counter
	statesLeft  *telemetry.Gauge
	transLeft   *telemetry.Gauge
}

func newCampaignTelemetry(reg *Telemetry) *campaignTelemetry {
	sc := reg.Scope("campaign")
	return &campaignTelemetry{
		scope:       sc,
		jobs:        sc.Counter("jobs"),
		violations:  sc.Counter("violations"),
		states:      sc.Counter("unique_states"),
		transitions: sc.Counter("transitions"),
		statesLeft:  sc.Gauge("states_left"),
		transLeft:   sc.Gauge("trans_left"),
	}
}

// jobDone aggregates one finished job and records the campaign-wide
// budget drawdown.
func (t *campaignTelemetry) jobDone(res *CampaignResult, left core.Budget) {
	t.jobs.Inc()
	t.violations.Add(int64(len(res.Violated)))
	t.states.Add(res.UniqueStates)
	t.transitions.Add(res.Transitions)
	t.statesLeft.Set(left.States)
	t.transLeft.Set(left.Transitions)
	t.scope.Counter("outcome_" + res.Outcome).Inc()
	t.scope.Emit(telemetry.TraceSearchStop, res.UniqueStates,
		res.Label+" "+res.Outcome)
}

// cacheKey groups jobs that may share a discover-cache set: one
// scenario at the scale it actually runs at (Scenario.Scale), buggy or
// repaired.
type cacheKey struct {
	scenario string
	scale    int
	fixed    bool
}

// Run executes the campaign: every job goes through Run (the unified
// engine entry point) with the campaign's budgets applied, at most
// Parallelism at a time. Extra opts are appended to every job's Run
// options (an Observer passed this way must be safe for concurrent use
// across jobs). Results keep Jobs order regardless of scheduling.
func (c *Campaign) Run(ctx context.Context, opts ...RunOption) *CampaignReport {
	start := time.Now()
	report := &CampaignReport{
		Results: make([]CampaignResult, len(c.Jobs)),
		Jobs:    len(c.Jobs),
	}

	budget := core.NewDrawdown(core.Budget{States: c.TotalMaxStates, Transitions: c.TotalMaxTransitions})
	ct := newCampaignTelemetry(c.Telemetry)

	var cachesMu sync.Mutex
	caches := make(map[cacheKey]*Caches)
	jobCaches := func(k cacheKey) *Caches {
		if !c.ShareCaches {
			return nil
		}
		cachesMu.Lock()
		defer cachesMu.Unlock()
		if caches[k] == nil {
			caches[k] = NewCaches()
		}
		return caches[k]
	}

	par := min(max(c.Parallelism, 1), len(c.Jobs))
	// Workers pull jobs in declaration order, so budgets drain
	// front-to-back (and Parallelism=1 is fully deterministic).
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(c.Jobs) {
					return
				}
				label := c.Jobs[i].label()
				ct.scope.Emit(telemetry.TraceSearchStart, 0, label)
				if c.OnJobStart != nil {
					c.OnJobStart(i, c.Jobs[i])
				}
				res := c.runJob(ctx, c.Jobs[i], label, budget, jobCaches, opts)
				ct.jobDone(&res, budget.Left())
				report.Results[i] = res
				if c.OnJobDone != nil {
					c.OnJobDone(i, res)
				}
			}
		}()
	}
	wg.Wait()

	for i := range report.Results {
		res := &report.Results[i]
		report.Transitions += res.Transitions
		report.UniqueStates += res.UniqueStates
		report.Violations += len(res.Violated)
		if !res.ok() {
			report.Unexpected++
		}
		if res.Outcome == OutcomePartial {
			report.Partial++
		}
		if res.Outcome == OutcomeStarved {
			report.Starved++
		}
	}
	report.Elapsed = time.Since(start)
	return report
}

// runJob builds and runs one job and classifies the outcome. A panic in
// the job — application or property code, on whichever goroutine the
// engine ran it (Session.Guard hands it back here) — becomes a job
// error, not a dead campaign.
func (c *Campaign) runJob(ctx context.Context, job CampaignJob, label string, budget *core.Drawdown, jobCaches func(cacheKey) *Caches, extra []RunOption) (res CampaignResult) {
	res = CampaignResult{Job: job, Label: label}
	fail := func(format string, args ...any) CampaignResult {
		res.Outcome = OutcomeError
		res.Err = fmt.Sprintf(format, args...)
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			res = fail("%v", r)
		}
	}()

	sc, ok := scenarios.Lookup(job.Scenario)
	if !ok {
		return fail("unknown scenario %q", job.Scenario)
	}
	cfg, strat, err := sc.Resolve(job.Scale, job.Strategy, job.Fixed)
	if err != nil {
		return fail("%v", err)
	}
	if !job.Fixed {
		res.Expected = sc.ExpectedProperty
		res.ExpectedMiss = sc.Misses[strat]
	}

	// Group caches by the scale the scenario runs at, so Scale:0 and an
	// explicit Scale:DefaultScale of one workload share a set — and
	// scale-less scenarios group regardless of the requested value.
	cc := jobCaches(cacheKey{job.Scenario, sc.Scale(job.Scale), job.Fixed})

	// The campaign's own settings first, the caller's after, applied
	// once; then the campaign's capture and per-job registry wrap a
	// caller-supplied observer and registry instead of replacing them.
	search := newJob(append([]RunOption{WithWorkers(c.Workers),
		WithMaxStates(c.JobMaxStates), WithDeadline(c.JobTimeout), WithCaches(cc)}, extra...))
	ownReg := search.Telemetry == nil
	if ownReg {
		search.Telemetry = NewTelemetry()
	}
	// The Final snapshot is the source of the StatesPerSec / PeakHeapBytes /
	// CacheHitRate columns. A search delivers exactly one, as its last
	// Observer call and on this goroutine (Session.End), so nothing races.
	var final Progress
	var user Observer = ObserverFuncs{}
	if search.Observer != nil {
		user = search.Observer
	}
	search.Observer = ObserverFuncs{
		Violation: user.OnViolation,
		Progress: func(p Progress) {
			user.OnProgress(p)
			if p.Final {
				final = p
			}
		},
	}

	// A job that finds the shared pool already exhausted never runs, and
	// one that stops on a limit the pool set is as undecided: both are
	// budget-starved, distinct from partial (the job's own budgets) and
	// from a real violation.
	r, starved := search.Run(ctx, cfg, budget)
	if cc != nil && c.CachePrune > 0 {
		// Trim now, then lift the bound: no eviction during the next search.
		cc.WithCapacity(c.CachePrune).WithCapacity(0)
	}

	res.Transitions = r.Transitions
	res.UniqueStates = r.UniqueStates
	res.SERuns = r.SERuns
	res.Elapsed = r.Elapsed
	res.Engine = r.Strategy
	res.Complete = r.Complete
	res.StopReason = string(r.StopReason)
	res.StatesPerSec = final.StatesPerSec
	res.PeakHeapBytes = final.PeakHeapInUse
	res.CacheHitRate = final.CacheHitRate
	if ownReg {
		snap := search.Telemetry.Snapshot()
		res.COWForks = snap.Counter("cow.forks")
		res.COWCopies = snap.Counter("cow.ensure_owned_copies")
	}

	seen := map[string]bool{}
	for i := range r.Violations {
		p := r.Violations[i].Property
		if !seen[p] {
			seen[p] = true
			res.Violated = append(res.Violated, p)
		}
	}
	sort.Strings(res.Violated)
	if v := r.FirstViolation(); v != nil {
		res.First = fmt.Sprintf("%s: %v", v.Property, v.Err)
	}

	res.Outcome = classify(&res)
	if res.Outcome == OutcomePartial && starved {
		res.Outcome = OutcomeStarved
	}
	return res
}

// classify derives the job outcome from expectations and the report.
func classify(res *CampaignResult) string {
	found := len(res.Violated) > 0
	expectedFound := false
	for _, p := range res.Violated {
		if p == res.Expected {
			expectedFound = true
		}
	}
	switch {
	case found && expectedFound && !res.ExpectedMiss && len(res.Violated) == 1:
		return OutcomeFound
	case found:
		// A violation where none was expected — a fixed app failing, a
		// documented-miss column finding the bug anyway, or a property
		// other than (or beside) the expected one tripping.
		return OutcomeUnexpected
	case !res.Complete:
		return OutcomePartial
	case res.Expected == "":
		return OutcomeClean
	case res.ExpectedMiss:
		return OutcomeMissedExpected
	default:
		return OutcomeMissed
	}
}
