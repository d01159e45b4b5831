package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
	_ "github.com/nice-go/nice/internal/search" // registers the engines requests name
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/scenarios"
)

// Options configures a Server. The zero value is serviceable: two
// workers, a 64-deep queue, a 4096-entry shared discover memo, no
// artifact persistence and unbounded tenants.
type Options struct {
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueLimit bounds queued-but-not-running jobs; submissions
	// beyond it are rejected with 429 (default 64).
	QueueLimit int

	// ArtifactDir persists violation traces and telemetry snapshots as
	// content-addressed JSON under this directory ("" = no artifacts).
	ArtifactDir string

	// CacheCapacity LRU-bounds the discover memo shared by every job
	// (default 4096 entries; negative = unbounded). The memo is keyed
	// by app-state digest, so jobs of the same scenario warm each
	// other up while tenant churn cannot grow the process unboundedly.
	CacheCapacity int

	// TenantMaxStates / TenantMaxTransitions are per-tenant drawdown
	// budgets shared by all of a tenant's jobs, in Campaign's
	// shared-budget sense: every finished job draws down its tenant's
	// pool, and a tenant with nothing left gets 429 until the server
	// restarts (0 = unbounded).
	TenantMaxStates      int64
	TenantMaxTransitions int64

	// JobTimeout / JobMaxStates / JobMaxTransitions cap what any
	// single job may ask for (0 = uncapped).
	JobTimeout        time.Duration
	JobMaxStates      int64
	JobMaxTransitions int64
	// DefaultJobWorkers sizes the search pool of a job that leaves
	// `workers` 0. When this is 0 too, a job naming no engine runs on
	// one worker and a named engine on its own default (all CPUs).
	DefaultJobWorkers int
	// ProgressEvery is the jobs' progress-event interval (0 = 500ms).
	ProgressEvery time.Duration
	// Telemetry receives the "service" scope plus every job's engine
	// scopes (nil = the server creates its own registry).
	Telemetry *telemetry.Registry
}

// serviceTelemetry is the "service"-scope handle bundle.
type serviceTelemetry struct {
	queued           *telemetry.Gauge
	running          *telemetry.Gauge
	submitted        *telemetry.Counter
	rejected         *telemetry.Counter
	completed        *telemetry.Counter
	canceled         *telemetry.Counter
	errored          *telemetry.Counter
	starved          *telemetry.Counter
	queueWait        *telemetry.Histogram
	artifactsWritten *telemetry.Counter
	artifactBytes    *telemetry.Counter
	streamClients    *telemetry.Gauge
	sealed           *telemetry.Counter
	historyBytes     *telemetry.Gauge
}

func newServiceTelemetry(reg *telemetry.Registry) *serviceTelemetry {
	sc := reg.Scope("service")
	return &serviceTelemetry{
		queued:           sc.Gauge("jobs_queued"),
		running:          sc.Gauge("jobs_running"),
		submitted:        sc.Counter("jobs_submitted"),
		rejected:         sc.Counter("jobs_rejected"),
		completed:        sc.Counter("jobs_completed"),
		canceled:         sc.Counter("jobs_canceled"),
		errored:          sc.Counter("jobs_errored"),
		starved:          sc.Counter("jobs_starved"),
		queueWait:        sc.Histogram("queue_wait_ms", []int64{1, 10, 100, 1000, 10000}),
		artifactsWritten: sc.Counter("artifacts_written"),
		artifactBytes:    sc.Counter("artifact_bytes"),
		streamClients:    sc.Gauge("stream_clients"),
		sealed:           sc.Counter("jobs_sealed"),
		historyBytes:     sc.Gauge("history_bytes"),
	}
}

// Server is the long-running checking service: a bounded worker pool
// over a job queue, per-job event streams, per-tenant budgets, one
// shared LRU-bounded discover memo, and an artifact store.
type Server struct {
	opts  Options
	reg   *telemetry.Registry
	tel   *serviceTelemetry
	cc    *core.Caches
	store *artifactStore

	baseCtx       context.Context
	cancel        context.CancelFunc
	wg            sync.WaitGroup
	running       atomic.Int64
	streamClients atomic.Int64
	historyBytes  atomic.Int64 // NDJSON bytes held by unsealed jobs

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	nextID   int
	queue    chan *job
	tenants  map[string]*core.Drawdown // one shared pool per submitter
	shutdown bool
	// Without an artifact store there is nothing to re-read a sealed
	// job's violations from, so the keepBodies most recently finished
	// jobs stay unsealed: a ring, finished counting what it has seen.
	recent   [keepBodies]*job
	finished int
}

// keepBodies is how many finished jobs a server without an artifact
// store keeps the history and violation bodies of.
const keepBodies = 64

// New builds and starts a Server (its workers run until Shutdown).
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueLimit <= 0 {
		opts.QueueLimit = 64
	}
	if opts.CacheCapacity == 0 {
		opts.CacheCapacity = 4096
	}
	if opts.CacheCapacity < 0 {
		opts.CacheCapacity = 0 // unbounded
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	tel := newServiceTelemetry(reg)
	store, err := newArtifactStore(opts.ArtifactDir, tel)
	if err != nil {
		return nil, err
	}
	cc := core.NewCaches().WithCapacity(opts.CacheCapacity)
	cc.AttachTelemetry(reg)

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		reg:     reg,
		tel:     tel,
		cc:      cc,
		store:   store,
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, opts.QueueLimit),
		tenants: make(map[string]*core.Drawdown),
	}
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Telemetry returns the server's registry (for mounting the metrics
// mux or snapshotting).
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// Caches exposes the shared discover memo (tests observe its bound).
func (s *Server) Caches() *core.Caches { return s.cc }

// submitError distinguishes rejection classes for the HTTP layer.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// Submit validates, admits and enqueues a job for the tenant.
func (s *Server) Submit(tenantName string, req *JobRequest) (*job, error) {
	if err := req.Validate(); err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	// Resolve the scenario now so an unknown name is a 400 at submit,
	// not a failed job; the config itself is rebuilt when the job runs.
	if _, err := buildConfig(req); err != nil {
		return nil, &submitError{status: 400, msg: err.Error()}
	}
	if tenantName == "" {
		tenantName = "default"
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return nil, &submitError{status: 503, msg: "server shutting down"}
	}
	tn := s.tenants[tenantName]
	if tn == nil {
		tn = core.NewDrawdown(core.Budget{
			States: s.opts.TenantMaxStates, Transitions: s.opts.TenantMaxTransitions})
		s.tenants[tenantName] = tn
	}
	if tn.Exhausted() {
		s.tel.rejected.Inc()
		return nil, &submitError{status: 429, msg: "tenant budget exhausted"}
	}

	s.nextID++
	j := newJob(s, "j"+strconv.Itoa(s.nextID), tenantName, *req)
	select {
	case s.queue <- j:
	default:
		s.tel.rejected.Inc()
		return nil, &submitError{status: 429, msg: "queue full"}
	}
	s.jobs[j.st.ID] = j
	s.order = append(s.order, j.st.ID)
	s.tel.submitted.Inc()
	s.tel.queued.Set(int64(len(s.queue)))
	j.setState(StateQueued, nil, "")
	return j, nil
}

// Job looks a job up by ID.
func (s *Server) Job(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs snapshots every job's status in submission order.
func (s *Server) Jobs() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// Shutdown stops the service gracefully: new submissions get 503,
// running searches are canceled (each still delivers its exactly-once
// Final progress snapshot and a terminal done event to every attached
// stream client), queued jobs are drained as canceled, and workers
// exit. Returns ctx.Err() if the drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutdown {
		s.shutdown = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.cancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.tel.queued.Set(int64(len(s.queue)))
		s.tel.queueWait.Observe(time.Since(j.st.QueuedAt).Milliseconds())
		s.runJob(j)
		if s.store == nil {
			s.mu.Lock()
			slot := &s.recent[s.finished%keepBodies]
			s.finished++
			aged := *slot
			*slot = j
			s.mu.Unlock()
			if aged != nil {
				aged.unsubscribe(aged.hold)
			}
		}
	}
}

// buildConfig resolves a request — a registry name or an inline spec —
// into a runnable Config.
func buildConfig(req *JobRequest) (*core.Config, error) {
	var sc scenarios.Scenario
	if req.Scenario != "" {
		var ok bool
		if sc, ok = scenarios.Lookup(req.Scenario); !ok {
			return nil, fmt.Errorf("unknown scenario %q", req.Scenario)
		}
	} else {
		sp, err := req.Spec.Compile()
		if err != nil {
			return nil, err
		}
		sc = sp.Scenario()
	}
	cfg, _, err := sc.Resolve(req.Scale, req.Strategy, req.Fixed)
	return cfg, err
}

// runJob executes one job end to end: build, search under the tenant's
// drawdown (core.Job.Run) with the event-bridging observer, persist
// artifacts, finalize.
func (s *Server) runJob(j *job) {
	// A job canceled while queued — or picked up mid-shutdown — never
	// runs; it still terminates its stream with a done event.
	j.mu.Lock()
	preCanceled := j.canceled
	j.mu.Unlock()
	if preCanceled || s.baseCtx.Err() != nil {
		s.tel.canceled.Inc()
		j.setState(StateCanceled, nil, "")
		return
	}

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	if j.canceled { // DELETE raced the pickup
		cancel()
	}
	j.mu.Unlock()

	s.tel.running.Set(s.running.Add(1))
	defer func() { s.tel.running.Set(s.running.Add(-1)) }()
	// A panic in the job's application or property code — on whichever
	// goroutine the engine ran it (core.Session.Guard hands it back to
	// this one) — ends this job as an error; the worker, and with it
	// every other tenant's jobs, carries on.
	defer func() {
		if r := recover(); r != nil {
			s.tel.errored.Inc()
			j.setState(StateError, nil, fmt.Sprintf("job panicked: %v", r))
		}
	}()
	j.setState(StateRunning, nil, "")

	req := &j.st.Request
	cfg, err := buildConfig(req)
	if err != nil {
		s.tel.errored.Inc()
		j.setState(StateError, nil, err.Error())
		return
	}

	s.mu.Lock()
	tn := s.tenants[j.st.Tenant]
	s.mu.Unlock()

	// The job's own asks, capped by the server's per-job limits; Run
	// caps them again by what the tenant's drawdown has left.
	own := core.Budget{States: req.MaxStates, Transitions: req.MaxTransitions}.
		Min(core.Budget{States: s.opts.JobMaxStates, Transitions: s.opts.JobMaxTransitions})
	search := core.Job{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		EngineOptions: core.EngineOptions{
			Workers:        cmp.Or(req.Workers, s.opts.DefaultJobWorkers),
			MaxStates:      own.States,
			MaxTransitions: own.Transitions,
			Caches:         s.cc,
			Telemetry:      s.reg,
			ProgressEvery:  s.opts.ProgressEvery,
			Observer:       core.ObserverFuncs{Violation: j.violation, Progress: j.progress},
		},
	}
	if limit := s.opts.JobTimeout; limit > 0 && (search.Timeout == 0 || limit < search.Timeout) {
		search.Timeout = limit
	}
	if req.Engine != "" {
		// Validated at submission against the engine registry, so the
		// lookup cannot miss here.
		spec, _ := core.LookupEngine(req.Engine)
		search.Engine = spec.New()
	} else if search.Workers == 0 {
		search.Workers = 1 // no engine, no pool size: the sequential checker
	}

	report, starved := search.Run(ctx, cfg, tn)

	result := &JobResult{
		Transitions:  report.Transitions,
		UniqueStates: report.UniqueStates,
		SERuns:       report.SERuns,
		Complete:     report.Complete,
		StopReason:   string(report.StopReason),
		ElapsedMS:    report.Elapsed.Milliseconds(),
		Starved:      starved,
	}
	if starved {
		s.tel.starved.Inc()
	}
	result.Violations = j.wireViolations(report.Violations)
	s.persistArtifacts(j, result)

	switch {
	case report.StopReason == core.StopCanceled:
		s.tel.canceled.Inc()
		j.setState(StateCanceled, result, "")
	default:
		s.tel.completed.Inc()
		j.setState(StateDone, result, "")
	}
}

// persistArtifacts writes one trace artifact per violation plus the
// job's telemetry snapshot, recording their content addresses on the
// result. Artifact failures degrade to an unpersisted result — the
// stream still carries the violations — rather than failing the job.
func (s *Server) persistArtifacts(j *job, result *JobResult) {
	if s.store == nil {
		return
	}
	for i := range result.Violations {
		ta := TraceArtifact{
			Version:   WireVersion,
			Job:       j.st.ID,
			Tenant:    j.st.Tenant,
			Request:   j.st.Request,
			Violation: result.Violations[i],
		}
		// Keep TraceArtifacts index-aligned with Violations even if a
		// write fails: the placeholder is the empty string.
		id := ""
		if data, err := json.MarshalIndent(ta, "", " "); err == nil {
			id, _ = s.store.put(data)
		}
		result.TraceArtifacts = append(result.TraceArtifacts, id)
	}
	if snap, err := json.Marshal(s.reg.Snapshot()); err == nil {
		if id, err := s.store.put(snap); err == nil {
			result.TelemetryArtifact = id
		}
	}
}
