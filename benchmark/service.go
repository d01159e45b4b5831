package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	nice "github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// service is the checking service under a closed loop: callers that
// each wait for their reply before sending the next job.
type service struct{}

func (*service) name() string { return "service-2tenants" }
func (*service) why() string {
	return "in-process nice.Serve, closed loop of 2 tenants posting loadbalancer searches and following the stream to done: the bare search plus HTTP, queue, stream fan-out and sha256 artifacts"
}

// inlineSpec is the declarative submission of docs/SERVICE.md (a
// buggy pyswitch on two switches), searched in full. One job in five
// submits it instead of naming a registry scenario, so the decode and
// compile path of internal/service is part of the mix.
const inlineSpec = `{
 "version": 1,
 "name": "wire-linear-ping",
 "topology": {"kind": "linear-hosts", "switches": 2, "hosts_per_switch": 2},
 "app": {"name": "pyswitch", "variant": "buggy"},
 "hosts": [
  {"name": "h1", "sends": 2, "send_to_last": true},
  {"last": true, "reply": "echo", "reply_budget": 1}
 ],
 "properties": ["StrictDirectPaths"],
 "expected_property": "StrictDirectPaths",
 "disable_se": true
}`

// jobKind is one of the two submissions of the mix.
type jobKind struct {
	name string // the pin's search name
	body []byte // the POST body
}

// coldPin names the pin of the first registry job a server runs. The
// server shares one discover memo between jobs, and whether a state's
// packet classes are cached is part of the state's identity: the cold
// job makes discover transitions the warm ones skip, so it visits more
// states than every later job does.
const coldPin = "registry-cold"

type serviceSession struct {
	e      *env
	base   string // http://127.0.0.1:port
	stop   context.CancelFunc
	served chan error
	client *http.Client
	kinds  [2]jobKind // registry, inline
	// order is each tenant's cyclic schedule of job kinds (indexes into
	// kinds), shuffled by the seed.
	order [workers][]int
	scale int
	dir   string
}

func (w *service) setup(e *env) (session, error) {
	s := &serviceSession{e: e, scale: 4, served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers}}}
	if e.smoke {
		s.scale = 3
	}
	spec, err := scenarios.ParseWireSpec([]byte(inlineSpec))
	if err != nil {
		return nil, err
	}
	registry, _ := json.Marshal(nice.JobRequest{Scenario: "loadbalancer-bench", Scale: s.scale, Engine: "dfs"})
	inline, _ := json.Marshal(nice.JobRequest{Spec: spec, Engine: "dfs"})
	s.kinds = [2]jobKind{{"registry-warm", registry}, {"inline", inline}}
	for t := range s.order {
		s.order[t] = []int{0, 0, 0, 0, 1}
		e.rng(int64(10+t)).Shuffle(len(s.order[t]), func(i, j int) {
			s.order[t][i], s.order[t][j] = s.order[t][j], s.order[t][i]
		})
	}

	// Artifacts live under the output directory: the benchmark writes
	// nowhere outside its checkout.
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if s.dir, err = os.MkdirTemp(e.outDir, "artifacts-"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(background)
	s.stop = cancel
	ready := make(chan string, 1)
	go func() {
		s.served <- nice.Serve(ctx, "127.0.0.1:0", nice.ServiceOptions{
			Workers: workers, DefaultJobWorkers: 1, ArtifactDir: s.dir}, ready)
	}()
	select {
	case addr := <-ready:
		s.base = "http://" + addr
	case err := <-s.served:
		cancel()
		return nil, fmt.Errorf("nice.Serve: %w", err)
	}
	// Warm-up: one job of each kind, checked; the registry one runs
	// cold and warms the shared memo for all that follow.
	for k, pin := range []string{coldPin, s.kinds[1].name} {
		e.note("warm-up", s.runJob("warmup", k, pin, nil, -1).sample)
	}
	return s, nil
}

func (s *serviceSession) close() {
	s.stop()
	if err := <-s.served; err != nil {
		s.e.failf("service shutdown: %v", err)
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// jobSample is one job as its client saw it.
type jobSample struct {
	sample
	kind           int
	id             string
	events         int
	submit         time.Duration // POST → 201
	firstViolation time.Duration // POST → first violation event (0 = none)
	done           time.Time
	result         *nice.JobResult
}

// runJob submits one job for tenant and follows its NDJSON stream to
// the done event. A non-201 reply, a stream without exactly one Final
// progress snapshot and one done event, or a verdict off its pin fail
// the job. With a tracer, each client-side phase is a kept span.
func (s *serviceSession) runJob(tenant string, kind int, pin string, tr *tracer, parent int) jobSample {
	j := jobSample{kind: kind}
	fail := func(format string, args ...any) jobSample {
		j.Err = fmt.Sprintf("job %s (%s): ", j.id, pin) + fmt.Sprintf(format, args...)
		return j
	}
	// The job id is the spans' op id, known only once the POST returns.
	span := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		id := tr.begin(name, tenant, parent)
		return func() { tr.end(id); tr.setOp(id, tenant+"/"+j.id) }
	}
	start := time.Now()

	endSubmit := span("service.submit")
	req, _ := http.NewRequest("POST", s.base+"/v1/jobs", bytes.NewReader(s.kinds[kind].body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(nice.ServiceTenantHeader, tenant)
	resp, err := s.client.Do(req)
	if err != nil {
		return fail("submit: %v", err)
	}
	var st nice.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	endSubmit()
	j.submit = time.Since(start)
	if resp.StatusCode != http.StatusCreated {
		return fail("submit: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return fail("submit: %v", err)
	}
	j.id = st.ID

	endStream := span("service.stream")
	defer endStream()
	resp, err = s.client.Get(s.base + "/v1/jobs/" + j.id + "/stream")
	if err != nil {
		return fail("stream: %v", err)
	}
	defer resp.Body.Close()
	finals, dones := 0, 0
	var keys []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var ev nice.ServiceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fail("stream: %v", err)
		}
		j.events++
		switch ev.Type {
		case "violation":
			if j.firstViolation == 0 {
				j.firstViolation = time.Since(start)
			}
			keys = append(keys, ev.Violation.Property+"|"+ev.Violation.Message)
		case "progress":
			if ev.Progress.Final {
				finals++
			}
		case "done":
			dones++
			j.done = time.Now()
			j.result = ev.Result
			if ev.State != "done" {
				return fail("ended %s", ev.State)
			}
		}
	}
	j.Wall = time.Since(start).Seconds()
	if err := sc.Err(); err != nil {
		return fail("stream: %v", err)
	}
	if finals != 1 || dones != 1 || j.result == nil {
		return fail("stream had %d Final snapshots and %d done events", finals, dones)
	}
	j.States, j.Transitions, j.SERuns = j.result.UniqueStates, j.result.Transitions, j.result.SERuns
	v := verdictOfKeys(keys)
	v.complete = j.result.Complete
	v.States, v.Transitions = j.States, j.Transitions
	if msg := s.e.check(pin, v); msg != "" {
		return fail("%s", msg)
	}
	return j
}

// jobsPerTenant caps the jobs one tenant submits in a measured run
// (about eight seconds' worth on the baseline box: see seqSession).
const jobsPerTenant = 25

// segment is how long the closed loop runs between two calibrations.
const segment = 2 * time.Second

// loop is the closed loop: every tenant submits its next job when the
// previous one is done, until d has passed or it has submitted limit
// jobs (but at least one each call). next counts each tenant's jobs so
// far, which is also its place in its schedule. each, if set, sees
// every finished job on its tenant's goroutine.
func (s *serviceSession) loop(d time.Duration, limit int, next *[workers]int, tr *tracer, parent int, each func(tenant int, j *jobSample)) []jobSample {
	var mu sync.Mutex
	var all []jobSample
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", t)
			for first := true; next[t] < limit && (first || time.Now().Before(deadline)); first = false {
				kind := s.order[t][next[t]%len(s.order[t])]
				next[t]++
				j := s.runJob(tenant, kind, s.kinds[kind].name, tr, parent)
				if each != nil {
					each(t, &j)
				}
				mu.Lock()
				all = append(all, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all
}

// measure runs the closed loop in segments with a burst of
// calibrations after each. A segment ends when both tenants have finished the job they
// were in, so a few percent of every segment has one client idle; that
// is the same in every run.
func (s *serviceSession) measure(d time.Duration) measurement {
	m := measurement{Concurrent: true}
	var next [workers]int
	start := time.Now()
	for {
		left := d - time.Since(start)
		if len(m.Samples) > 0 && (left <= 0 || (next[0] >= jobsPerTenant && next[1] >= jobsPerTenant)) {
			// The server keeps every job's event history, so its
			// resident set only grows: the run's peak is the last
			// segment's, one value, not a sample per segment.
			m.PeakRSSMB = []float64{slices.Max(m.PeakRSSMB)}
			return m
		}
		quiesce()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		jobs := s.loop(min(segment, left), jobsPerTenant, &next, nil, -1, nil)
		wall := time.Since(t0).Seconds()
		m.Wall += wall
		runtime.ReadMemStats(&after)
		m.Cals = append(m.Cals, calibrateAfter(wall)...)
		m.Mallocs += after.Mallocs - before.Mallocs
		m.PeakRSSMB = append(m.PeakRSSMB, peakRSSMB())
		for _, j := range jobs {
			m.Samples = append(m.Samples, j.sample)
		}
	}
}

func (s *serviceSession) traced(tr *tracer, d time.Duration, m map[string]float64) int {
	sc, _ := scenarios.Lookup("loadbalancer-bench")
	build := func() *core.Config { return sc.Config(s.scale) }
	tracedLayers(tr, s.e, []namedConfig{{name: "loadbalancer-bench", build: build}}, d, m)

	// The wire path of an inline submission: decode, validate, compile.
	m["scenarios.wire_compile.ns"] = timeLoop(d/200, func(int) {
		ws, err := scenarios.ParseWireSpec([]byte(inlineSpec))
		if err == nil {
			_, err = ws.Compile()
		}
		if err != nil {
			panic(err) // the spec is a constant of this file
		}
	})

	// The traced closed loop, a fifth of the measured one's length.
	// After its stream ends each job fetches its status document (the
	// server's own timestamps), its first trace artifact, and replays it.
	var mu sync.Mutex
	series := map[string][]float64{}
	add := func(name string, v float64) {
		mu.Lock()
		series[name] = append(series[name], v)
		mu.Unlock()
	}
	var replayNS, replayTransitions, artifactBytes, events int64
	root := tr.begin("service.loop", "loop", -1)
	var next [workers]int
	jobs := s.loop(d/5, jobsPerTenant, &next, tr, root, func(t int, j *jobSample) {
		if s.e.note("traced", j.sample).Err != "" {
			return
		}
		add("submit", ms(j.submit))
		if j.kind != 0 {
			return // the phase medians describe the registry jobs
		}
		add("verdict", j.Wall*1e3)
		add("first_violation", ms(j.firstViolation))
		var st nice.JobStatus
		if err := s.getJSON("/v1/jobs/"+j.id, &st); err != nil || st.StartedAt == nil || st.EndedAt == nil {
			s.e.failf("service traced: status of %s: %v", j.id, err)
			return
		}
		add("queue_wait", ms(st.StartedAt.Sub(st.QueuedAt)))
		add("run", ms(st.EndedAt.Sub(*st.StartedAt)))
		add("stream_tail", ms(j.done.Sub(*st.EndedAt)))

		op := fmt.Sprintf("tenant-%d/%s", t, j.id)
		id := tr.begin("service.artifact_get", op, root)
		data, err := s.get("/v1/artifacts/" + j.result.TraceArtifacts[0])
		add("artifact_get", ms(tr.end(id)))
		if err != nil {
			s.e.failf("service traced: artifact of %s: %v", j.id, err)
			return
		}
		ta, err := nice.DecodeTraceArtifact(data)
		if err != nil {
			s.e.failf("service traced: artifact of %s: %v", j.id, err)
			return
		}
		id = tr.begin("service.replay", op, root)
		rr, err := nice.ReplayArtifact(ta)
		dur := tr.end(id)
		add("replay", ms(dur))
		if err != nil || !rr.Reproduced {
			s.e.failf("service traced: replay of %s did not reproduce (%v)", j.id, err)
		}
		mu.Lock()
		replayNS += dur.Nanoseconds()
		replayTransitions += int64(len(ta.Violation.Trace))
		events += int64(j.events)
		mu.Unlock()
	})
	tr.end(root)
	registryJobs := len(series["verdict"])
	if registryJobs == 0 {
		s.e.failf("service traced: no registry job finished")
		return len(jobs)
	}
	for name, vs := range series {
		m["service."+name+".ms_p50"] = median(vs)
	}
	m["service.verdict.ms_p90"] = percentile(sortedCopy(series["verdict"]), 90)
	m["service.submit.ms_p90"] = percentile(sortedCopy(series["submit"]), 90)
	m["service.events_per_job"] = float64(events) / float64(registryJobs)
	if replayTransitions > 0 {
		m["core.replay.ns_per_transition"] = float64(replayNS) / float64(replayTransitions)
	}
	// What the artifact store holds now was written by the warm-up and
	// traced jobs: bytes per job from the directory itself.
	filepath.Walk(s.dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			artifactBytes += info.Size()
		}
		return nil
	})
	m["service.artifact_bytes_per_job"] = float64(artifactBytes) / float64(len(jobs)+len(s.kinds))
	var snap nice.TelemetrySnapshot
	if err := s.getJSON("/metrics", &snap); err == nil {
		m["service.rejected"] = float64(snap.Counter("service.jobs_rejected"))
		telemetryMetrics(&snap, m)
	}

	// The same search without the service, at the same concurrency:
	// what the job's wall would be with no HTTP, queue, stream or
	// artifacts around it.
	var bare []float64
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				r := nice.Run(background, build())
				el := time.Since(t0)
				mu.Lock()
				bare = append(bare, ms(el))
				mu.Unlock()
				if r.UniqueStates == 0 {
					s.e.failf("service traced: bare search explored nothing")
				}
			}
		}()
	}
	wg.Wait()
	m["service.overhead_ratio"] = median(series["verdict"]) / median(bare)
	soloWall := timed(func() { nice.Run(background, build()) })
	driverWall := driveConfigs(tr, s.e, "", []namedConfig{{name: "loadbalancer-bench", build: build}}, m)
	m["trace.overhead_ratio"] = driverWall.Seconds() / soloWall.Seconds()
	// A job's SERuns is the shared memo's running total, so the
	// explorations of the whole loop are the largest one seen.
	var seRuns int64
	var jobWall float64
	for _, j := range jobs {
		seRuns = max(seRuns, j.SERuns)
		jobWall += j.Wall
	}
	symMetrics(seRuns, 0, time.Duration(jobWall*1e9), m)
	return len(jobs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (s *serviceSession) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return data, err
}

func (s *serviceSession) getJSON(path string, v any) error {
	data, err := s.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
