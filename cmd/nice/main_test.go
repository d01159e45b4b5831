package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/nice-go/nice"
)

// niceBin is the binary under test, built once by TestMain.
var niceBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "nice-cli")
	if err != nil {
		panic(err)
	}
	niceBin = filepath.Join(dir, "nice")
	if out, err := exec.Command("go", "build", "-o", niceBin, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns stdout, stderr and the exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(niceBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("nice %v: %v", args, err)
		}
		code = ee.ExitCode()
	}
	return out.String(), errb.String(), code
}

// TestListNamesEveryEngine: -list is driven by the engine registry.
func TestListNamesEveryEngine(t *testing.T) {
	out, _, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("nice -list exited %d", code)
	}
	for _, spec := range nice.EngineSpecs() {
		if !strings.Contains(out, "\n  "+spec.Name+" ") {
			t.Errorf("-list does not name engine %q", spec.Name)
		}
	}
}

// TestExperiments: Table 1 prints (with its ρ column); Table 2 moved to
// run-all, and asking for it says so.
func TestExperiments(t *testing.T) {
	out, _, code := run(t, "experiments", "-table1", "-maxpings", "1")
	if code != 0 || !strings.Contains(out, "rho") || !strings.Contains(out, "0.00") {
		t.Errorf("experiments -table1: exit %d, output:\n%s", code, out)
	}
	_, errOut, code := run(t, "experiments", "-table2")
	if code != 2 || !strings.Contains(errOut, "run-all -scenarios table2") {
		t.Errorf("experiments -table2: exit %d, want usage error naming run-all; stderr:\n%s", code, errOut)
	}
}

// TestServe: the service boots on an ephemeral port, announces the
// bound address and shuts down cleanly on SIGINT.
func TestServe(t *testing.T) {
	cmd := exec.Command(niceBin, "serve", "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	line := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Scan()
		line <- sc.Text()
	}()
	select {
	case got := <-line:
		if !strings.Contains(got, "listening on 127.0.0.1:") {
			t.Fatalf("first stderr line %q, want the bound address", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nice serve never announced its address")
	}
	cmd.Process.Signal(syscall.SIGINT)
	if err := cmd.Wait(); err != nil {
		t.Errorf("nice serve after SIGINT: %v, want exit 0", err)
	}
}

// TestReplayFailsClosed: `nice replay <id>` checks what it fetched
// against the id it asked for; a server answering with other bytes —
// here a well-formed artifact with one byte changed — is a transport
// error (exit 2), not a replay.
func TestReplayFailsClosed(t *testing.T) {
	ta, err := json.Marshal(nice.TraceArtifact{Version: 1, Job: "j1",
		Request: nice.JobRequest{Scenario: "bug-ii"}})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(ta)
	id := hex.EncodeToString(sum[:])
	var tampered atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := ta
		if tampered.Load() {
			body = bytes.Replace(ta, []byte(`"j1"`), []byte(`"j2"`), 1)
		}
		w.Write(body)
	}))
	defer ts.Close()

	// Intact bytes get past the check (and replay clean: no trace).
	if _, errOut, code := run(t, "replay", "-server", ts.URL, id); code != 1 || strings.Contains(errOut, "match") {
		t.Errorf("intact artifact: exit %d, stderr %q; want the replay to run (exit 1, not reproduced)", code, errOut)
	}
	tampered.Store(true)
	if _, errOut, code := run(t, "replay", "-server", ts.URL, id); code != 2 || !strings.Contains(errOut, "does not match its id") {
		t.Errorf("tampered artifact: exit %d, stderr %q; want exit 2 naming the mismatch", code, errOut)
	}
}
