package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
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
// three tenants submit a stream of distinct scenarios and the shared
// discover memo stays at its LRU bound with live hit-rate telemetry.
func TestServiceChurnKeepsCacheBounded(t *testing.T) {
	const capacity = 4
	s, ts := newTestServer(t, service.Options{
		Workers:       2,
		CacheCapacity: capacity,
	})
	var ids []string
	for scale := 1; scale <= 3; scale++ {
		for _, tenant := range []string{"t1", "t2", "t3"} {
			body := fmt.Sprintf(`{"scenario": "pingpong-se", "scale": %d}`, scale)
			st := submit(t, ts, tenant, body)
			ids = append(ids, st.ID)
		}
	}
	for _, id := range ids {
		collectStream(t, ts, id)
	}

	if got := s.Caches().Len(); got > capacity {
		t.Errorf("shared memo holds %d entries after churn, want <= %d", got, capacity)
	}
	hits, misses := s.Caches().HitCounts()
	if hits+misses == 0 {
		t.Error("cache hit-rate telemetry not observable: no lookups recorded")
	}
	// Every miss inserts an entry; more inserts than capacity means the
	// LRU must have evicted.
	if misses > capacity && s.Caches().Evictions() == 0 {
		t.Errorf("%d inserts at capacity %d produced no evictions", misses, capacity)
	}
	snap := s.Telemetry().Snapshot()
	if got := snap.Counter("service.jobs_completed"); got != int64(len(ids)) {
		t.Errorf("service.jobs_completed = %d, want %d", got, len(ids))
	}
}

// TestServiceRejections: malformed submissions fail loudly with the
// offending field, unknown scenarios 400, queue overflow 429.
func TestServiceRejections(t *testing.T) {
	_, ts := newTestServer(t, service.Options{Workers: 1})

	if _, code, msg := trySubmit(t, ts, "", `{"scenario": "no-such"}`); code != 400 || !strings.Contains(msg, "no-such") {
		t.Errorf("unknown scenario: %d %q", code, msg)
	}
	if _, code, msg := trySubmit(t, ts, "", `{"scenario": "bug-ii", "bogus": 1}`); code != 400 || !strings.Contains(msg, "bogus") {
		t.Errorf("unknown field: %d %q", code, msg)
	}
	if _, code, msg := trySubmit(t, ts, "", `{"scenario": "bug-ii", "spec": `+wireSpecJSON+`}`); code != 400 || !strings.Contains(msg, "exactly one") {
		t.Errorf("scenario+spec: %d %q", code, msg)
	}
	badSpec := strings.Replace(wireSpecJSON, `"kind": "linear-hosts"`, `"kind": "torus"`, 1)
	if _, code, msg := trySubmit(t, ts, "", `{"spec": `+badSpec+`}`); code != 400 || !strings.Contains(msg, "topology.kind") {
		t.Errorf("bad spec: %d %q — want the offending field named", code, msg)
	}
	if _, code, _ := trySubmit(t, ts, "", `{"scenario": "bug-ii", "strategy": "psychic"}`); code != 400 {
		t.Errorf("unknown strategy: %d, want 400", code)
	}
	if _, code, msg := trySubmit(t, ts, "", `{"scenario": "bug-ii", "engine": "psychic"}`); code != 400 || !strings.Contains(msg, "engine") {
		t.Errorf("unknown engine: %d %q — want the offending field named", code, msg)
	}
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + strings.Repeat("zz", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("invalid artifact id: %d, want 404", resp.StatusCode)
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
