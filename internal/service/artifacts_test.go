// The artifact store as jobs share it: a violation found again resolves
// to the file already stored, a damaged file is written again by the
// next job that finds it, and a job's telemetry artifact holds its own
// window of the trace ring.
package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/internal/telemetry"
)

// fetchArtifact GETs one artifact: its bytes and the status code.
func fetchArtifact(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/artifacts/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

// requireReplays decodes a fetched trace artifact and replays it.
func requireReplays(t *testing.T, id string, data []byte) {
	t.Helper()
	ta, err := service.DecodeTraceArtifact(data)
	if err != nil {
		t.Fatalf("artifact %s…: %v", id[:8], err)
	}
	res, err := service.ReplayArtifact(ta)
	if err != nil || !res.Reproduced {
		t.Fatalf("artifact %s…: replay did not reproduce (%v)", id[:8], err)
	}
}

// storedFiles counts the artifact documents under dir.
func storedFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// coldMemo starts every job on a fresh discover memo. A trace found on
// a cold memo holds the discover step a warm one skips, so only jobs
// that start alike find byte-identical violations.
const coldMemo = 1

// TestRepeatedFindingsShareArtifacts: two tenants each run the same
// search twice. Every run lists the same 38 trace artifacts, stored
// once; only the four telemetry snapshots differ.
func TestRepeatedFindingsShareArtifacts(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: dir, CacheCapacity: coldMemo})
	var ids []string
	for _, tenant := range []string{"alice", "alice", "bob", "bob"} {
		ids = append(ids, submit(t, ts, tenant, lbJob).ID)
	}
	var first []string
	for i, id := range ids {
		got := summarize(collectStream(t, ts, id)).result.TraceArtifacts
		if i == 0 {
			first = got
		}
		if len(got) != 38 || !slices.Equal(got, first) {
			t.Fatalf("job %s lists %d trace artifacts, not the first job's %d", id, len(got), len(first))
		}
	}
	if n := storedFiles(t, dir); n != 38+4 {
		t.Errorf("artifact directory holds %d files, want 38 traces + 4 telemetry snapshots", n)
	}
	snap := s.Telemetry().Snapshot()
	if resets := snap.Counter("service.memo_resets"); resets != 3 {
		t.Fatalf("service.memo_resets = %d: not every job started on a fresh memo", resets)
	}
	if w, r := snap.Counter("service.artifacts_written"), snap.Counter("service.artifacts_reused"); w != 42 || r != 3*38 {
		t.Errorf("service.artifacts_written = %d, artifacts_reused = %d; want 42 and %d", w, r, 3*38)
	}
	for _, id := range first {
		data, code := fetchArtifact(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("artifact %s…: status %d", id[:8], code)
		}
		if bytes.ContainsRune(data, '\n') {
			t.Errorf("artifact %s… is not compact JSON", id[:8])
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		if _, ok := fields["job"]; ok {
			t.Errorf("artifact %s… names a job", id[:8])
		}
		if _, ok := fields["tenant"]; ok {
			t.Errorf("artifact %s… names a tenant", id[:8])
		}
		requireReplays(t, id, data)
	}
}

// TestDamagedArtifactsAreWrittenAgain: a file that no longer hashes to
// its name answers 404 and is removed; one whose size is wrong is not
// reused. The next job that finds those violations stores them afresh
// under the same IDs.
func TestDamagedArtifactsAreWrittenAgain(t *testing.T) {
	dir := t.TempDir()
	s, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: dir, CacheCapacity: coldMemo})
	ids := summarize(collectStream(t, ts, submit(t, ts, "", lbJob).ID)).result.TraceArtifacts
	corrupt(t, dir, ids[3], func(b []byte) []byte { return b[:len(b)/2] })
	corrupt(t, dir, ids[7], func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	corrupt(t, dir, ids[11], func(b []byte) []byte { return b[:len(b)-1] }) // never fetched
	for _, bad := range []string{ids[3], ids[7]} {
		if _, code := fetchArtifact(t, ts, bad); code != http.StatusNotFound {
			t.Errorf("corrupt artifact %s…: status %d, want 404", bad[:8], code)
		}
	}

	again := summarize(collectStream(t, ts, submit(t, ts, "", lbJob).ID)).result.TraceArtifacts
	if !slices.Equal(again, ids) {
		t.Fatal("the second run lists other trace artifacts than the first")
	}
	for _, id := range []string{ids[3], ids[7], ids[11]} {
		data, code := fetchArtifact(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("rewritten artifact %s…: status %d, want 200", id[:8], code)
		}
		requireReplays(t, id, data)
	}
	// 38 traces and a telemetry snapshot, then the three repairs and a
	// second snapshot.
	if w := s.Telemetry().Snapshot().Counter("service.artifacts_written"); w != 38+1+3+1 {
		t.Errorf("service.artifacts_written = %d, want %d", w, 38+1+3+1)
	}
}

// TestTelemetryArtifactHoldsItsJobsWindow: a job's telemetry snapshot
// keeps the trace events emitted since the job started, so it does not
// grow with the jobs that ran before it.
func TestTelemetryArtifactHoldsItsJobsWindow(t *testing.T) {
	_, ts := startServer(t, service.Options{Workers: 1, ArtifactDir: t.TempDir()})
	var sizes []int
	for i := 0; i < 10; i++ {
		id := submit(t, ts, "", lbJob).ID
		result := summarize(collectStream(t, ts, id)).result
		data, code := fetchArtifact(t, ts, result.TelemetryArtifact)
		if code != http.StatusOK {
			t.Fatalf("job %s: telemetry artifact status %d", id, code)
		}
		var snap telemetry.Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		start := getStatus(t, ts, id).StartedAt.UnixNano()
		if len(snap.Trace) == 0 {
			t.Fatalf("job %s: telemetry artifact holds no trace events", id)
		}
		for _, ev := range snap.Trace {
			if ev.WallNS < start {
				t.Fatalf("job %s: trace event %d (%s) precedes the job's start by %d ns",
					id, ev.Seq, ev.Kind, start-ev.WallNS)
			}
		}
		sizes = append(sizes, len(data))
	}
	if 2*sizes[9] > 3*sizes[1] {
		t.Errorf("telemetry artifact sizes %v: the tenth is over 1.5× the second", sizes)
	}
}
