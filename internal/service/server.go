package service

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
)

// Options configures a Server. The zero value is serviceable: two
// workers, a 64-deep queue, a shared discover memo renewed past 4096
// entries, no artifact persistence and unbounded tenants.
type Options struct {
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// QueueLimit bounds queued-but-not-running jobs; submissions
	// beyond it are rejected with 429 (default 64).
	QueueLimit int

	// ArtifactDir persists violation traces and telemetry snapshots as
	// content-addressed JSON under this directory ("" = no artifacts).
	ArtifactDir string

	// CacheCapacity bounds the discover memo the jobs share (default
	// 4096 entries; negative = unbounded). The memo is keyed by
	// app-state digest, so jobs of the same scenario warm each other
	// up; a job that starts on a memo holding more than CacheCapacity
	// entries starts a fresh one instead, so tenant churn cannot grow
	// the process unboundedly. A running job keeps the memo it started
	// on: no search ever loses an entry.
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
	// New rejects a value above MaxWorkers.
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
	artifactsReused  *telemetry.Counter
	streamClients    *telemetry.Gauge
	sealed           *telemetry.Counter
	historyBytes     *telemetry.Gauge
	memoResets       *telemetry.Counter
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
		artifactsReused:  sc.Counter("artifacts_reused"),
		streamClients:    sc.Gauge("stream_clients"),
		sealed:           sc.Counter("jobs_sealed"),
		historyBytes:     sc.Gauge("history_bytes"),
		memoResets:       sc.Counter("memo_resets"),
	}
}

// Server is the long-running checking service: a bounded worker pool
// over a job queue, per-job event streams, per-tenant budgets, one
// shared discover memo, and an artifact store.
type Server struct {
	opts  Options
	reg   *telemetry.Registry
	tel   *serviceTelemetry
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
	cc       *core.Caches              // the discover memo the next job starts on
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
	if opts.DefaultJobWorkers < 0 || opts.DefaultJobWorkers > MaxWorkers {
		return nil, fmt.Errorf("service: DefaultJobWorkers %d outside [0, %d]", opts.DefaultJobWorkers, MaxWorkers)
	}
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
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		reg:     reg,
		tel:     tel,
		store:   store,
		baseCtx: ctx,
		cancel:  cancel,
		jobs:    make(map[string]*job),
		queue:   make(chan *job, opts.QueueLimit),
		tenants: make(map[string]*core.Drawdown),
		cc:      core.NewCaches(),
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

// Caches exposes the discover memo the next job will start on (tests
// observe its bound).
func (s *Server) Caches() *core.Caches {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cc
}

// submitError distinguishes rejection classes for the HTTP layer.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// Submit validates, admits and enqueues a job for the tenant.
func (s *Server) Submit(tenantName string, req *JobRequest) (*job, error) {
	// Resolve now so an unknown scenario is a 400 at submit, not a
	// failed job; the search itself is resolved again when the job runs.
	if _, _, err := req.Resolve(); err != nil {
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
	// Only Submit sends on the queue, under s.mu, so room now is room
	// at the send. The queued status goes out before a worker can take
	// the job: set after the send, it could land on top of the worker's
	// running status and leave a running job reading "queued".
	if len(s.queue) == cap(s.queue) {
		s.tel.rejected.Inc()
		return nil, &submitError{status: 429, msg: "queue full"}
	}
	j := newJob(s, "j"+strconv.Itoa(s.nextID), tenantName, *req)
	j.setState(StateQueued, nil, "")
	s.queue <- j
	s.jobs[j.st.ID] = j
	s.order = append(s.order, j.st.ID)
	s.tel.submitted.Inc()
	s.tel.queued.Set(int64(len(s.queue)))
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

// runJob executes one job end to end: build, search under the tenant's
// drawdown (search.Job.Run) with the event-bridging observer, persist
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

	// The request as a service job asks it: `workers: 0` is the
	// server's default pool before the engine is inferred.
	req := j.st.Request
	req.Workers = cmp.Or(req.Workers, s.opts.DefaultJobWorkers)
	cfg, search, err := req.Resolve()
	if err != nil {
		s.tel.errored.Inc()
		j.setState(StateError, nil, err.Error())
		return
	}

	// The job runs on the current memo unless that has outgrown the
	// bound; then it starts a fresh one, and the jobs still running on
	// the old memo keep it until they end.
	s.mu.Lock()
	tn := s.tenants[j.st.Tenant]
	if limit := s.opts.CacheCapacity; limit > 0 && s.cc.Len() > limit {
		s.cc = core.NewCaches()
		s.tel.memoResets.Inc()
	}
	cc := s.cc
	s.mu.Unlock()

	// The job's own asks, capped by the server's per-job limits; Run
	// caps them again by what the tenant's drawdown has left.
	own := core.Budget{States: search.MaxStates, Transitions: search.MaxTransitions}.
		Min(core.Budget{States: s.opts.JobMaxStates, Transitions: s.opts.JobMaxTransitions})
	search.MaxStates, search.MaxTransitions = own.States, own.Transitions
	if limit := s.opts.JobTimeout; limit > 0 && (search.Timeout == 0 || limit < search.Timeout) {
		search.Timeout = limit
	}
	search.Caches, search.Telemetry, search.ProgressEvery = cc, s.reg, s.opts.ProgressEvery
	search.Observer = core.ObserverFuncs{Violation: j.violation, Progress: j.progress}

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
// result. A trace artifact names no job or tenant, so a violation found
// before, by any job, resolves to the file already stored. Artifact
// failures degrade to an unpersisted result — the stream still carries
// the violations — rather than failing the job.
func (s *Server) persistArtifacts(j *job, result *JobResult) {
	if s.store == nil {
		return
	}
	for i := range result.Violations {
		ta := TraceArtifact{
			Version:   WireVersion,
			Request:   j.st.Request,
			Violation: result.Violations[i],
		}
		// Keep TraceArtifacts index-aligned with Violations even if a
		// write fails: the placeholder is the empty string.
		id := ""
		if data, err := json.Marshal(ta); err == nil {
			id, _ = s.store.put(data)
		}
		result.TraceArtifacts = append(result.TraceArtifacts, id)
	}
	// Of the registry's trace ring, the snapshot keeps the job's window:
	// the events emitted since it started.
	snap := s.reg.Snapshot()
	start := j.st.StartedAt.UnixNano()
	snap.Trace = slices.DeleteFunc(snap.Trace, func(ev telemetry.TraceEvent) bool { return ev.WallNS < start })
	if data, err := json.Marshal(snap); err == nil {
		if id, err := s.store.put(data); err == nil {
			result.TelemetryArtifact = id
		}
	}
}
