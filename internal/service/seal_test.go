// What a finished job costs: the sealing of a job's history, the
// stream rebuilt from its artifacts, and artifacts that no longer hash
// to their name.
package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nice-go/nice/internal/service"
)

// lbJob is a full load-balancer search: 38 violations, ~20 ms.
const lbJob = `{"scenario": "loadbalancer-bench", "scale": 3, "engine": "dfs"}`

// summary is what a stream says about its job, order aside.
type summary struct {
	keys          []string // sorted property|message of the violation events
	finals, dones int
	errors        []string
	result        service.JobResult // the done event's
}

// violationKey is a violation's identity: property and message.
func violationKey(v *service.WireViolation) string { return v.Property + "|" + v.Message }

func summarize(events []service.Event) summary {
	var s summary
	for _, ev := range events {
		switch ev.Type {
		case "violation":
			s.keys = append(s.keys, violationKey(ev.Violation))
		case "progress":
			if ev.Progress.Final {
				s.finals++
			}
		case "error":
			s.errors = append(s.errors, ev.Error)
		case "done":
			s.dones++
			if ev.Result != nil {
				s.result = *ev.Result
			}
		}
	}
	slices.Sort(s.keys)
	return s
}

// waitSealed waits until the server has sealed n jobs: the last
// subscriber's handler unsubscribes after its client has read done.
func waitSealed(t *testing.T, s *service.Server, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		got := s.Telemetry().Snapshot().Counter("service.jobs_sealed")
		if got == n {
			return
		}
		if got > n || time.Now().After(deadline) {
			t.Fatalf("service.jobs_sealed = %d, want %d", got, n)
		}
	}
}

func getStatus(t *testing.T, ts *httptest.Server, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFinishedJobsCostConstantMemory: what a server holds for a
// finished job does not grow with what the job found. With an artifact
// store every job is sealed when its watcher leaves; without one the
// newest KeepBodies jobs keep their bodies, so the heap is measured
// once that many have finished.
func TestFinishedJobsCostConstantMemory(t *testing.T) {
	const perJob = 64 << 10
	for _, tc := range []struct {
		name    string
		dir     string
		settled int // jobs finished before the first measurement
	}{
		{"artifacts", t.TempDir(), 8},
		{"no-artifacts", "", service.KeepBodies + 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: tc.dir})
			finished := 0
			heapAfter := func(jobs int) uint64 {
				for ; finished < jobs; finished++ {
					collectStream(t, ts, submit(t, ts, "", lbJob).ID)
				}
				sealed := finished
				if tc.dir == "" {
					sealed -= service.KeepBodies
				}
				waitSealed(t, s, int64(sealed))
				http.DefaultClient.CloseIdleConnections()
				var m runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&m)
				return m.HeapInuse
			}
			before := heapAfter(tc.settled)
			after := heapAfter(tc.settled + 40)
			if grew := int64(after) - int64(before); grew > 40*perJob {
				t.Errorf("HeapInuse grew %d KB over 40 finished jobs (%d KB each), want < %d KB each",
					grew>>10, grew/40>>10, perJob>>10)
			}
			if tc.dir != "" {
				if held := s.Telemetry().Snapshot().Gauge("service.history_bytes"); held != 0 {
					t.Errorf("service.history_bytes = %d with every job sealed, want 0", held)
				}
			}
		})
	}
}

// TestSealedJobReplaysFromArtifacts: each violation goes on the wire
// once — in its violation event and in its trace artifact, while done
// carries totals and artifact ids — and the stream a late attacher gets
// from a sealed job, rebuilt from the trace artifacts, says what the
// live stream said: the same violations, one Final snapshot, one done,
// the same totals and artifact ids; and so does the status document.
func TestSealedJobReplaysFromArtifacts(t *testing.T) {
	s, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: t.TempDir(),
		ProgressEvery: time.Millisecond})
	id := submit(t, ts, "", lbJob).ID
	liveEvents, liveLines := followStream(t, ts, id)
	live := summarize(liveEvents)
	waitSealed(t, s, 1)
	lateEvents := collectStream(t, ts, id)
	late := summarize(lateEvents)

	if len(live.keys) != 38 || live.finals != 1 || live.dones != 1 {
		t.Fatalf("live stream: %d violations, %d Final, %d done", len(live.keys), live.finals, live.dones)
	}
	doneLine := liveLines[len(liveLines)-1]
	var done struct {
		Result map[string]json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(doneLine, &done); err != nil {
		t.Fatal(err)
	}
	if _, bodies := done.Result["violations"]; bodies || len(doneLine) >= 4096 {
		t.Errorf("live done line: %d bytes, violation bodies %v; want < 4096 bytes and none", len(doneLine), bodies)
	}
	streamed := make(map[string]*service.WireViolation)
	for _, ev := range liveEvents {
		if ev.Type == "violation" {
			if streamed[violationKey(ev.Violation)] != nil {
				t.Errorf("%s streamed twice", violationKey(ev.Violation))
			}
			streamed[violationKey(ev.Violation)] = ev.Violation
		}
	}
	// An artifact holds the streamed body, or the strictly shorter trace
	// the search kept for that key after streaming the first it found.
	shortened := 0
	for _, aid := range live.result.TraceArtifacts {
		data, code := fetchArtifact(t, ts, aid)
		ta, err := service.DecodeTraceArtifact(data)
		if code != http.StatusOK || err != nil {
			t.Fatalf("artifact %s…: %d %v", aid[:8], code, err)
		}
		sv := streamed[violationKey(&ta.Violation)]
		stored, _ := json.Marshal(ta.Violation)
		sent, _ := json.Marshal(sv)
		switch {
		case sv == nil:
			t.Errorf("artifact %s… holds %s, which was never streamed", aid[:8], violationKey(&ta.Violation))
		case len(ta.Violation.Trace) < len(sv.Trace):
			shortened++
		case string(stored) != string(sent):
			t.Errorf("artifact %s… of %s: %d transitions, not the body streamed with %d",
				aid[:8], violationKey(sv), len(ta.Violation.Trace), len(sv.Trace))
		}
	}
	t.Logf("%d of %d artifacts hold a trace shortened after streaming", shortened, len(live.result.TraceArtifacts))
	if !slices.Equal(late.keys, live.keys) {
		t.Errorf("late stream carries %d violations, live carried %d", len(late.keys), len(live.keys))
	}
	if late.finals != 1 || late.dones != 1 || len(late.errors) != 0 {
		t.Errorf("late stream: %d Final, %d done, errors %v", late.finals, late.dones, late.errors)
	}
	lateResult, _ := json.Marshal(late.result)
	liveResult, _ := json.Marshal(live.result)
	if string(lateResult) != string(liveResult) {
		t.Errorf("late done result %s\nlive done result %s", lateResult, liveResult)
	}
	for i, ev := range lateEvents {
		if ev.Seq != i || ev.Job != id {
			t.Fatalf("late event %d is %s/seq %d", i, ev.Job, ev.Seq)
		}
		if ev.Type == "progress" && !ev.Progress.Final {
			t.Errorf("late stream kept a periodic progress event (seq %d)", i)
		}
	}
	st := getStatus(t, ts, id)
	if st.Result == nil || len(st.Result.TraceArtifacts) != 38 || st.Error != "" {
		t.Errorf("sealed job's status document: result %+v, error %q", st.Result, st.Error)
	}
	if again := summarize(collectStream(t, ts, id)); !slices.Equal(again.keys, live.keys) {
		t.Error("a second late attach read something else")
	}
}

// TestWithoutArtifactsOldJobsSayBodiesAreGone: a server with nothing to
// re-read from keeps the newest KeepBodies finished jobs whole; an
// older one keeps its totals and says its violations were released.
func TestWithoutArtifactsOldJobsSayBodiesAreGone(t *testing.T) {
	s, ts := startServer(t, service.Options{Workers: 1})
	first := submit(t, ts, "", lbJob).ID
	live := summarize(collectStream(t, ts, first))
	if kept := summarize(collectStream(t, ts, first)); !slices.Equal(kept.keys, live.keys) || len(kept.errors) != 0 {
		t.Fatalf("unsealed finished job re-read %d violations, errors %v", len(kept.keys), kept.errors)
	}
	for i := 0; i < service.KeepBodies; i++ {
		collectStream(t, ts, submit(t, ts, "", `{"scenario": "bug-ii"}`).ID)
	}
	waitSealed(t, s, 1)
	late := summarize(collectStream(t, ts, first))
	if len(late.keys) != 0 || len(late.errors) != 1 || !strings.Contains(late.errors[0], "38 violation bodies released") {
		t.Errorf("aged job's stream: %d violations, errors %v", len(late.keys), late.errors)
	}
	if late.finals != 1 || late.dones != 1 || late.result.UniqueStates != live.result.UniqueStates {
		t.Errorf("aged job's stream: %d Final, %d done, %d states (live %d)",
			late.finals, late.dones, late.result.UniqueStates, live.result.UniqueStates)
	}
	if st := getStatus(t, ts, first); !strings.Contains(st.Error, "released") || st.State != service.StateDone {
		t.Errorf("aged job's status: state %s, error %q", st.State, st.Error)
	}
}

// corrupt rewrites one stored artifact in place.
func corrupt(t *testing.T, dir, id string, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, id[:2], id+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, edit(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptArtifactsFailClosed: a stored artifact that was truncated
// or had a bit flipped no longer hashes to its name; GET answers 404
// instead of handing the bytes out, and the stream rebuilt for the
// sealed job carries an error event in that violation's place.
func TestCorruptArtifactsFailClosed(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: dir})
	id := submit(t, ts, "", lbJob).ID
	live := summarize(collectStream(t, ts, id))
	waitSealed(t, s, 1)
	ids := live.result.TraceArtifacts
	corrupt(t, dir, ids[3], func(b []byte) []byte { return b[:len(b)/2] })
	corrupt(t, dir, ids[7], func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })

	for _, bad := range []string{ids[3], ids[7]} {
		resp, err := http.Get(ts.URL + "/v1/artifacts/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("corrupt artifact %s…: status %d, want 404", bad[:8], resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/artifacts/" + ids[0]); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("intact artifact: %v %v", err, resp.Status)
	}

	late := summarize(collectStream(t, ts, id))
	if len(late.keys) != 36 || len(late.errors) != 2 || late.finals != 1 || late.dones != 1 {
		t.Fatalf("rebuilt stream: %d violations, errors %v, %d Final, %d done",
			len(late.keys), late.errors, late.finals, late.dones)
	}
	if !strings.HasPrefix(late.errors[0], "violation 3:") || !strings.HasPrefix(late.errors[1], "violation 7:") {
		t.Errorf("error events %v, want them to name violations 3 and 7", late.errors)
	}
}

// stallListener gives a 4 KB send buffer only to the connections whose
// client address is in stall, so only a watcher meant to stall fills
// its buffers and meets the stream write timeout; a reading watcher
// keeps the default buffers however late the scheduler runs it.
type stallListener struct {
	net.Listener
	stall *sync.Map // client address → struct{}
}

func (l stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return &stallConn{Conn: c, stall: l.stall}, nil
}

type stallConn struct {
	net.Conn
	stall *sync.Map
	once  sync.Once
}

// Write shrinks the send buffer before the first response byte, by which
// time the client has registered its address.
func (c *stallConn) Write(b []byte) (int, error) {
	c.once.Do(func() {
		if _, ok := c.stall.Load(c.RemoteAddr().String()); ok {
			c.Conn.(*net.TCPConn).SetWriteBuffer(4 << 10)
		}
	})
	return c.Conn.Write(b)
}

// TestSlowWatcherDoesNotPinHistory: a watcher that disconnects
// mid-stream and one that stops reading both let go of the job — it is
// sealed, and neither handler outlives the server.
func TestSlowWatcherDoesNotPinHistory(t *testing.T) {
	defer service.SetStreamWriteTimeout(200 * time.Millisecond)()
	before := runtime.NumGoroutine()
	s, err := service.New(service.Options{Workers: 1, ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var stall sync.Map
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = stallListener{ts.Listener, &stall}
	ts.Start()

	// watch opens a raw stream connection; a stalling one gets small
	// socket buffers at both ends, so the server's writes stall once
	// the client stops reading.
	watch := func(id string, stalling bool) (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", strings.TrimPrefix(ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		if stalling {
			conn.(*net.TCPConn).SetReadBuffer(4 << 10)
			stall.Store(conn.LocalAddr().String(), struct{}{})
		}
		fmt.Fprintf(conn, "GET /v1/jobs/%s/stream HTTP/1.1\r\nHost: x\r\n\r\n", id)
		r := bufio.NewReaderSize(conn, 512)
		if line, err := r.ReadString('\n'); err != nil || !strings.Contains(line, "200") {
			t.Fatalf("stream: %q, %v", line, err)
		}
		return conn, r
	}
	// A search long enough that both watchers attach while it runs, and
	// a stream larger than any socket buffer between them.
	id := submit(t, ts, "", `{"scenario": "loadbalancer-bench", "scale": 5, "engine": "dfs"}`).ID
	stalled, _ := watch(id, true)
	defer stalled.Close()
	gone, r := watch(id, false)
	r.ReadString('\n')
	gone.Close()

	// A watcher that reads is not cut off for the stream having been
	// quiet: the second job waits, eventless, for longer than the write
	// timeout behind the first on this one-worker server.
	queued := submit(t, ts, "", `{"scenario": "bug-ii"}`).ID
	quiet := make(chan []service.Event, 1)
	go func() { quiet <- collectStream(t, ts, queued) }()

	collectStream(t, ts, id) // a well-behaved third watcher reads to done
	if evs := <-quiet; evs[len(evs)-1].Type != "done" {
		t.Errorf("the quiet stream ended on %q", evs[len(evs)-1].Type)
	}
	waitSealed(t, s, 2)
	if held := s.Telemetry().Snapshot().Gauge("service.history_bytes"); held != 0 {
		t.Errorf("service.history_bytes = %d after sealing, want 0", held)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	stalled.Close()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	requireNoLeak(t, before)
}
