package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/scenarios"
)

// wireSpecJSON is the e2e submission: pyswitch on LinearHosts(2, 2),
// fully declarative, expected to violate StrictDirectPaths.
const wireSpecJSON = `{
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
 "stop_at_first_violation": true,
 "disable_se": true
}`

func newTestServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	if opts.ArtifactDir == "" {
		opts.ArtifactDir = t.TempDir()
	}
	return startServer(t, opts)
}

// startServer starts a server as configured — without an artifact store
// unless opts names a directory — and shuts it down with the test.
func startServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	s, err := service.New(opts)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, tenant, body string) service.JobStatus {
	t.Helper()
	st, code, errMsg := trySubmit(t, ts, tenant, body)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d: %s", code, errMsg)
	}
	return st
}

func trySubmit(t *testing.T, ts *httptest.Server, tenant, body string) (service.JobStatus, int, string) {
	t.Helper()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(service.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return service.JobStatus{}, resp.StatusCode, e.Error
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("submit: decoding: %v", err)
	}
	return st, resp.StatusCode, ""
}

// collectStream follows a job's NDJSON stream until its done event.
func collectStream(t *testing.T, ts *httptest.Server, id string) []service.Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q, want application/x-ndjson", ct)
	}
	var events []service.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream: bad line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
		if ev.Type == "done" {
			return events
		}
	}
	t.Fatalf("stream for %s ended without a done event (%d events, err %v)", id, len(events), sc.Err())
	return nil
}

// TestServiceEndToEnd is the acceptance path: a declarative Spec
// round-trips over HTTP, two concurrent watchers both stream the
// expected violation and exactly one Final snapshot, and the
// persisted trace artifact replays to the same violation fingerprint.
func TestServiceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	st := submit(t, ts, "", `{"spec": `+wireSpecJSON+`}`)

	var wg sync.WaitGroup
	streams := make([][]service.Event, 2)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			streams[i] = collectStream(t, ts, st.ID)
		}(i)
	}
	wg.Wait()

	var fingerprint, artifact string
	for i, events := range streams {
		finals, violations := 0, 0
		var last service.Event
		for _, ev := range events {
			switch ev.Type {
			case "progress":
				if ev.Progress.Final {
					finals++
				}
			case "violation":
				violations++
				if ev.Violation.Property != "StrictDirectPaths" {
					t.Errorf("watcher %d: violated %q, want StrictDirectPaths", i, ev.Violation.Property)
				}
				fingerprint = ev.Violation.Fingerprint
			}
			last = ev
		}
		if violations == 0 {
			t.Fatalf("watcher %d saw no violation", i)
		}
		if finals != 1 {
			t.Errorf("watcher %d saw %d Final snapshots, want exactly 1", i, finals)
		}
		if last.Type != "done" || last.State != service.StateDone {
			t.Fatalf("watcher %d ended on %s/%s, want done/done", i, last.Type, last.State)
		}
		if len(last.Result.TraceArtifacts) == 0 || last.Result.TraceArtifacts[0] == "" {
			t.Fatal("done event carries no trace artifact")
		}
		artifact = last.Result.TraceArtifacts[0]
	}

	// Both watchers saw identical histories (same seq numbering).
	if len(streams[0]) != len(streams[1]) {
		t.Errorf("watchers saw %d vs %d events", len(streams[0]), len(streams[1]))
	}

	// Fetch the artifact and replay it: same violation, same fingerprint.
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + artifact)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch: %v (%v)", err, resp.Status)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	ta, err := service.DecodeTraceArtifact(buf.Bytes())
	if err != nil {
		t.Fatalf("decoding artifact: %v", err)
	}
	res, err := service.ReplayArtifact(ta)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Reproduced {
		t.Fatalf("replay did not reproduce: expected %s, got %s", res.Expected, res.Fingerprint)
	}
	if res.Fingerprint != fingerprint {
		t.Errorf("replay fingerprint %s, streamed %s", res.Fingerprint, fingerprint)
	}
}

// TestServiceSSE: Accept: text/event-stream switches the stream to
// SSE frames carrying the same events.
func TestServiceSSE(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	st := submit(t, ts, "", `{"scenario": "bug-ii"}`)

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/stream", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sawEventLine, sawDone := false, false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			sawEventLine = true
		}
		if line == "event: done" {
			sawDone = true
		}
		if sawDone && strings.HasPrefix(line, "data: ") {
			var ev service.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE data: %v", err)
			}
			if ev.Type != "done" {
				t.Errorf("event after done frame label is %q", ev.Type)
			}
			return
		}
	}
	t.Fatalf("SSE stream ended early (event lines seen: %v)", sawEventLine)
}

// TestServiceGracefulShutdown pins the lifecycle satellite: shutdown
// mid-job cancels the search, and an attached stream client still
// receives the Observer's exactly-once Final snapshot plus a terminal
// done event before EOF.
func TestServiceGracefulShutdown(t *testing.T) {
	opts := service.Options{Workers: 1, ProgressEvery: 10 * time.Millisecond, ArtifactDir: t.TempDir()}
	s, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// A failure before the shutdown below must still end the job, or
	// Close waits on its stream for good.
	defer s.Shutdown(context.Background())

	// An effectively unbounded search: the full-search benchmark
	// scenario at scale 6 has far too many states to finish before the
	// shutdown lands.
	st := submit(t, ts, "", `{"scenario": "pyswitch-bench", "scale": 6}`)

	events := make(chan []service.Event, 1)
	go func() { events <- collectStream(t, ts, st.ID) }()

	// Wait until the job is actually running.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur service.JobStatus
		json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if cur.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	var evs []service.Event
	select {
	case evs = <-events:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after shutdown")
	}
	finals := 0
	last := evs[len(evs)-1]
	for _, ev := range evs {
		if ev.Type == "progress" && ev.Progress.Final {
			finals++
		}
	}
	if finals != 1 {
		t.Errorf("stream saw %d Final snapshots across shutdown, want exactly 1", finals)
	}
	if last.Type != "done" || last.State != service.StateCanceled {
		t.Errorf("stream ended on %s/%s, want done/canceled", last.Type, last.State)
	}
	if last.Result == nil || last.Result.StopReason != "canceled" {
		t.Errorf("canceled job result %+v, want stop reason canceled", last.Result)
	}

	// New submissions are refused while shut down.
	if _, code, _ := trySubmit(t, ts, "", `{"scenario": "bug-ii"}`); code != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: status %d, want 503", code)
	}
}

// TestServiceCancelLeavesNoGoroutines: DELETE cancels a running job,
// the stream terminates, and after shutdown the process is back to
// its baseline goroutine count — no leaked workers, subscribers or
// search goroutines.
func TestServiceCancelLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := service.New(service.Options{Workers: 2, ProgressEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	st := submit(t, ts, "", `{"scenario": "pyswitch-bench", "scale": 6, "workers": 2}`)

	done := make(chan []service.Event, 1)
	go func() { done <- collectStream(t, ts, st.ID) }()
	time.Sleep(50 * time.Millisecond) // let it spin up

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}

	select {
	case evs := <-done:
		last := evs[len(evs)-1]
		if last.State != service.StateCanceled {
			t.Errorf("canceled job ended %s, want canceled", last.State)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stream did not terminate after cancel")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	ts.Close()

	requireNoLeak(t, before)
}

// TestServiceTenantBudgets: a tenant that exhausts its drawdown gets
// 429 on the next submission while other tenants keep working.
func TestServiceTenantBudgets(t *testing.T) {
	_, ts := newTestServer(t, service.Options{
		Workers:         1,
		TenantMaxStates: 40,
	})
	st := submit(t, ts, "tenant-a", `{"scenario": "pyswitch-bench"}`)
	evs := collectStream(t, ts, st.ID)
	last := evs[len(evs)-1]
	if last.Result == nil || !last.Result.Starved {
		t.Fatalf("budget-clamped job result %+v, want starved=true", last.Result)
	}

	if _, code, msg := trySubmit(t, ts, "tenant-a", `{"scenario": "bug-ii"}`); code != http.StatusTooManyRequests {
		t.Errorf("exhausted tenant: status %d (%s), want 429", code, msg)
	}
	st2 := submit(t, ts, "tenant-b", `{"scenario": "bug-ii"}`)
	evs2 := collectStream(t, ts, st2.ID)
	if got := evs2[len(evs2)-1].State; got != service.StateDone {
		t.Errorf("fresh tenant's job ended %s, want done", got)
	}
}

// TestServiceChurnKeepsCacheBounded is the acceptance churn test:
// three tenants submit a stream of distinct scenarios, and every job
// starts on a discover memo of at most the server's capacity — the one
// the last job left when that fits, a fresh one (a service.memo_resets)
// when it does not — with live hit-rate telemetry. The jobs run one at a
// time so the memo each one starts on is known.
func TestServiceChurnKeepsCacheBounded(t *testing.T) {
	const capacity = 4
	s, ts := newTestServer(t, service.Options{
		Workers:       2,
		CacheCapacity: capacity,
	})
	var jobs, wantResets int64
	for scale := 1; scale <= 3; scale++ {
		for _, tenant := range []string{"t1", "t2", "t3"} {
			before := s.Caches()
			held := before.Len()
			body := fmt.Sprintf(`{"scenario": "pingpong-se", "scale": %d}`, scale)
			collectStream(t, ts, submit(t, ts, tenant, body).ID)
			jobs++
			ran := s.Caches()
			if held > capacity {
				wantResets++
				if ran == before {
					t.Errorf("job %d started on a memo of %d entries, capacity %d", jobs, held, capacity)
				}
			} else if ran != before {
				t.Errorf("job %d replaced a memo of %d entries, within capacity %d", jobs, held, capacity)
			}
		}
	}

	snap := s.Telemetry().Snapshot()
	if got := snap.Counter("service.memo_resets"); got != wantResets || got == 0 {
		t.Errorf("service.memo_resets = %d, want %d (> 0)", got, wantResets)
	}
	hits, misses := s.Caches().HitCounts()
	if hits+misses == 0 {
		t.Error("cache hit-rate telemetry not observable: no lookups recorded")
	}
	if got := snap.Counter("service.jobs_completed"); got != jobs {
		t.Errorf("service.jobs_completed = %d, want %d", got, jobs)
	}
}

// TestServiceMemoBoundKeepsVerdicts: a memory bound far below one
// search's working set still finds every violation, on one worker and
// on two, while the server's two workers share or replace the memo
// between jobs. A bound that drops entries during a search loses
// bug-ii's violation in a third of such jobs: a frontier engine admits
// a state while its discover result is cached and enumerates it after
// the entry is gone. Verdicts are judged by the stop reason because a
// server without an artifact store releases the violation bodies of
// older jobs.
func TestServiceMemoBoundKeepsVerdicts(t *testing.T) {
	s, _ := startServer(t, service.Options{Workers: 2, CacheCapacity: 1})
	const jobs = 50
	for i := 0; i < jobs; i++ {
		if _, err := s.Submit("", &service.JobRequest{Scenario: "bug-ii", Workers: 1 + i%2}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	var sts []service.JobStatus
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		sts = s.Jobs()
		done := 0
		for _, st := range sts {
			if st.State == service.StateDone || st.State == service.StateError || st.State == service.StateCanceled {
				done++
			}
		}
		if done == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs finished within a minute", done, jobs)
		}
	}
	missed := 0
	for _, st := range sts {
		if st.State != service.StateDone || st.Result == nil || st.Result.StopReason != "violation" {
			missed++
			if st.Result != nil {
				t.Errorf("%s (workers %d): %s, stop reason %q; want a violation", st.ID, st.Request.Workers, st.State, st.Result.StopReason)
			} else {
				t.Errorf("%s (workers %d): %s %s; want a violation", st.ID, st.Request.Workers, st.State, st.Error)
			}
			continue
		}
		for _, v := range st.Result.Violations {
			if v.Property != "StrictDirectPaths" {
				t.Errorf("%s: violated %s, want StrictDirectPaths", st.ID, v.Property)
			}
		}
	}
	if missed > 0 {
		t.Errorf("%d of %d bug-ii jobs missed the violation", missed, jobs)
	}
	if got := s.Telemetry().Snapshot().Counter("service.memo_resets"); got == 0 {
		t.Error("service.memo_resets = 0 at capacity 1; the bound never replaced the memo")
	}
}

// TestServiceRejections: malformed submissions fail loudly — every bad
// request names its JSON field, both as the *scenarios.FieldError
// Resolve returns and as the prefix of the 400 — and unknown fields and
// artifact ids are rejected.
func TestServiceRejections(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})

	badSpec := strings.Replace(wireSpecJSON, `"kind": "linear-hosts"`, `"kind": "torus"`, 1)
	topology := func(with string) string {
		return strings.Replace(wireSpecJSON, `"kind": "linear-hosts", "switches": 2, "hosts_per_switch": 2`, with, 1)
	}
	scaled := func(topo, extra string) string {
		return strings.Replace(topology(topo), `"name": "wire-linear-ping",`, `"name": "wire-linear-ping", "scale_name": "n",`+extra, 1)
	}
	rows := []struct{ body, field, names string }{
		{`{}`, "scenario", "exactly one"},
		{`{"scenario": "bug-ii", "spec": ` + wireSpecJSON + `}`, "scenario", "exactly one"},
		{`{"scenario": "no-such"}`, "scenario", "no-such"},
		{`{"spec": ` + badSpec + `}`, "spec.topology.kind", "torus"},
		{`{"scenario": "bug-ii", "strategy": "psychic"}`, "strategy", "flow-ir"},
		{`{"scenario": "bug-ii", "engine": "psychic"}`, "engine", "concolic"},
		{`{"scenario": "bug-ii", "reduction": "sleepy"}`, "reduction", "dpor"},
		{`{"scenario": "bug-ii", "scale": 3}`, "scale", "no scale knob"},
		{`{"scenario": "pingpong", "scale": -1}`, "scale", "negative"},
		{`{"scenario": "bug-ii", "workers": -1}`, "workers", "negative"},
		{`{"scenario": "bug-ii", "workers": 1073741824}`, "workers", "1024"},
		{`{"scenario": "bug-ii", "sym_workers": 1025}`, "sym_workers", "1024"},
		{`{"scenario": "bug-ii", "sym_budget": -1}`, "sym_budget", "negative"},
		{`{"scenario": "bug-ii", "max_states": -1}`, "max_states", "negative"},
		{`{"scenario": "bug-ii", "max_transitions": -1}`, "max_transitions", "negative"},
		{`{"scenario": "bug-ii", "timeout_ms": -1}`, "timeout_ms", "negative"},
		{`{"scenario": "bug-ii", "max_depth": -1}`, "max_depth", "negative"},
		{`{"scenario": "bug-ii", "walks": -1}`, "walks", "negative"},
		{`{"scenario": "bug-ii", "steps": -1}`, "steps", "negative"},
		{`{"scenario": "bug-ii", "timeout_ms": 9223372036855}`, "timeout_ms", "9223372036854"},
		{`{"scenario": "pyswitch-fattree", "scale": 64}`, "scale", "16"},
		{`{"scenario": "loadbalancer-star", "scale": 1024}`, "scale", "1023"},
		{`{"scenario": "pyswitch-linearhosts", "scale": 513}`, "scale", "512"},
		{`{"spec": ` + topology(`"kind": "fat-tree", "k": 64`) + `}`, "spec.topology.k", "16"},
		{`{"spec": ` + topology(`"kind": "mesh", "host_count": 65`) + `}`, "spec.topology.host_count", "64"},
		{`{"spec": ` + topology(`"kind": "star", "host_count": 1025`) + `}`, "spec.topology.host_count", "1024"},
		{`{"spec": ` + topology(`"kind": "linear-hosts", "switches": 513, "hosts_per_switch": 2`) + `}`, "spec.topology.switches", "512"},
		{`{"spec": ` + topology(`"kind": "linear-hosts", "hosts_per_switch": 1025`) + `}`, "spec.topology.hosts_per_switch", "1024"},
		{`{"spec": ` + scaled(`"kind": "fat-tree"`, `"default_scale": 18,`) + `}`, "spec.default_scale", "16"},
		{`{"spec": ` + scaled(`"kind": "fat-tree"`, `"default_scale": 4,`) + `, "scale": 18}`, "scale", "16"},
	}
	for _, row := range rows {
		req, err := service.DecodeJobRequest(strings.NewReader(row.body))
		if err == nil {
			_, _, err = req.Resolve()
		}
		var fe *scenarios.FieldError
		if !errors.As(err, &fe) || fe.Field != row.field {
			t.Errorf("%s: error %v, want a FieldError for %q", row.body, err, row.field)
		}
		if _, code, msg := trySubmit(t, ts, "", row.body); code != 400 || !strings.HasPrefix(msg, row.field+": ") || !strings.Contains(msg, row.names) {
			t.Errorf("POST %s: %d %q, want 400 naming %q and %q", row.body, code, msg, row.field, row.names)
		}
	}
	if _, code, msg := trySubmit(t, ts, "", `{"scenario": "bug-ii", "bogus": 1}`); code != 400 || !strings.Contains(msg, "bogus") {
		t.Errorf("unknown field: %d %q", code, msg)
	}
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + strings.Repeat("zz", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("invalid artifact id: %d, want 404", resp.StatusCode)
	}
	evs := collectStream(t, ts, submit(t, ts, "", `{"scenario": "bug-ii"}`).ID)
	if done := evs[len(evs)-1]; done.State != service.StateDone || len(done.Result.Violations) == 0 {
		t.Errorf("the next job ended %s with %+v, want done with bug-ii's violation", done.State, done.Result)
	}
}

// TestSubmitBodyBounded: the server stops reading a submission one byte
// past 1 MiB and answers 413 before decoding it, and a body carries one
// JSON value; the largest topology a spec may build, every host listed
// and named, still fits.
func TestSubmitBodyBounded(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})

	const limit = 1 << 20
	pad := func(n int) string {
		body := `{"scenario": "bug-ii", "max_states": 10}`
		return body[:1] + strings.Repeat(" ", n-len(body)) + body[1:]
	}
	if _, code, msg := trySubmit(t, ts, "", pad(limit+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of %d bytes: %d %q, want 413", limit+1, code, msg)
	}
	submit(t, ts, "", pad(limit))
	if _, code, msg := trySubmit(t, ts, "", `{"scenario":"bug-ii"} {"scenario":"bug-iii"}`); code != http.StatusBadRequest {
		t.Errorf("two JSON values: %d %q, want 400", code, msg)
	}

	spec := scenarios.WireSpec{
		Version: 1, Name: "star-max",
		Topology:   scenarios.WireTopology{Kind: "star", HostCount: scenarios.MaxHosts},
		App:        scenarios.WireApp{Name: "pyswitch"},
		Properties: []string{"StrictDirectPaths"}, DisableSE: true,
	}
	for i := 1; i <= scenarios.MaxHosts; i++ {
		name := fmt.Sprintf("host-%04d", i)
		spec.Topology.Names = append(spec.Topology.Names, name)
		spec.Hosts = append(spec.Hosts, scenarios.WireHost{Name: name, Reply: "echo", ReplyBudget: 1})
	}
	spec.Hosts[0] = scenarios.WireHost{Name: "host-0001", Sends: 1, SendTo: "host-1024"}
	data, err := json.Marshal(map[string]any{"max_states": 10, "spec": spec})
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	t.Logf("%d-host star spec: %d bytes", scenarios.MaxHosts, len(body))
	submit(t, ts, "", body)
}

// TestRequestBoundsWorkerPools: a pool of a billion workers would be a
// billion goroutines — an out-of-memory crash no recover
// catches. The server answers 400 instead and runs the next job.
func TestRequestBoundsWorkerPools(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	for _, body := range []string{
		`{"scenario": "bug-ii", "workers": 1073741824}`,
		`{"scenario": "bug-ii", "engine": "concolic", "sym_workers": 1073741824}`,
	} {
		if _, code, _ := trySubmit(t, ts, "", body); code != 400 {
			t.Errorf("POST %s: %d, want 400", body, code)
		}
	}
	evs := collectStream(t, ts, submit(t, ts, "", `{"scenario": "bug-ii", "workers": 2}`).ID)
	if done := evs[len(evs)-1]; done.State != service.StateDone || len(done.Result.Violations) == 0 {
		t.Errorf("the next job ended %s with %+v, want done with bug-ii's violation", done.State, done.Result)
	}
}

// TestDefaultJobWorkersBounded: the operator's default pool for
// `workers: 0` obeys the same bound as a request, checked when the
// server is built rather than blamed on each job that leaves it 0.
func TestDefaultJobWorkersBounded(t *testing.T) {
	for _, n := range []int{-1, service.MaxWorkers + 1} {
		if _, err := service.New(service.Options{DefaultJobWorkers: n}); err == nil || !strings.Contains(err.Error(), "DefaultJobWorkers") {
			t.Errorf("DefaultJobWorkers %d: err %v, want one naming DefaultJobWorkers", n, err)
		}
	}
}

// TestServiceConcolicEngine: a job can request the concolic loop by
// name, and the search completes with the scenario's expected violation
// — the engine axis rides the same streaming/result plumbing as the
// default engines.
func TestServiceConcolicEngine(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	st := submit(t, ts, "", `{"scenario": "bug-ii", "engine": "concolic", "workers": 2}`)
	events := collectStream(t, ts, st.ID)
	last := events[len(events)-1]
	if last.Type != "done" || last.Result == nil {
		t.Fatalf("job did not finish done: %+v", last)
	}
	found := false
	for _, ev := range events {
		if ev.Type == "violation" && ev.Violation != nil &&
			ev.Violation.Property == "StrictDirectPaths" {
			found = true
		}
	}
	if !found {
		t.Error("concolic job streamed no StrictDirectPaths violation")
	}
}

// TestServiceScenarioList sanity-checks GET /v1/scenarios against the
// registry.
func TestServiceScenarioList(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Scenarios []struct {
			Name string `json:"name"`
		} `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Scenarios) != len(scenarios.All()) {
		t.Errorf("listed %d scenarios, registry has %d", len(got.Scenarios), len(scenarios.All()))
	}
}
