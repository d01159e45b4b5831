package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// TestExperiments: every table prints the ping workload's pinned
// transition and state counts (the timing columns vary and are not
// read); Table 2 moved to run-all, and asking for it says so.
func TestExperiments(t *testing.T) {
	out, _, code := run(t, "experiments", "-all", "-maxpings", "2")
	if code != 0 {
		t.Fatalf("experiments -all: exit %d, output:\n%s", code, out)
	}
	// row returns the fields of the 2-ping row of the section whose
	// title starts with title.
	row := func(title string) []string {
		for _, section := range strings.Split(out, "\n\n") {
			if !strings.HasPrefix(section, title) {
				continue
			}
			for _, line := range strings.Split(section, "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] == "2" {
					return f
				}
			}
		}
		t.Fatalf("no 2-ping row under %q in:\n%s", title, out)
		return nil
	}
	for _, c := range []struct {
		title string
		cols  []int
		want  []string
	}{
		// NICE-MC transitions/states, NO-SWITCH-REDUCTION transitions/states.
		{"Table 1", []int{1, 2, 4, 5}, []string{"347", "216", "366", "236"}},
		// NO-DELAY and FLOW-IR transition reductions.
		{"Figure 6", []int{1, 3}, []string{"0.87", "0.04"}},
		// NICE-MC transitions, baseline transitions.
		{"§7 comparison", []int{1, 3}, []string{"347", "368"}},
	} {
		f := row(c.title)
		for i, col := range c.cols {
			if col >= len(f) || f[col] != c.want[i] {
				t.Errorf("%s: 2-ping row %v, want column %d = %s", c.title, f, col, c.want[i])
			}
		}
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

// TestStrayArguments: flag parsing stops at the first positional
// argument, so one is a usage error naming it rather than a silently
// ignored word — and the retired submit subcommand says what replaced it.
func TestStrayArguments(t *testing.T) {
	if _, errOut, code := run(t, "-scenario", "pingpong", "extra"); code != 2 || !strings.Contains(errOut, `"extra"`) {
		t.Errorf("stray argument: exit %d, stderr %q; want exit 2 naming it", code, errOut)
	}
	if _, errOut, code := run(t, "submit", "-scenario", "bug-ii"); code != 2 || !strings.Contains(errOut, "-server") {
		t.Errorf("nice submit: exit %d, stderr %q; want exit 2 pointing at -server", code, errOut)
	}
}

// TestLocalAndRemote: one request, asked in-process and of a service,
// means the same search with the same exit code; the remote run prints
// the trace artifact its violation was persisted as. Local-only flags
// are a usage error next to -server.
func TestLocalAndRemote(t *testing.T) {
	s, err := nice.NewService(nice.ServiceOptions{Workers: 1, ArtifactDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	out, errOut, code := run(t, "-server", ts.URL, "-scenario", "bug-ii")
	if code != 1 || !regexp.MustCompile(`trace artifact [0-9a-f]{64}`).MatchString(out) {
		t.Errorf("remote bug-ii: exit %d, want 1 and a trace artifact id; stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if out, _, code := run(t, "-scenario", "bug-ii"); code != 1 || !strings.Contains(out, "StrictDirectPaths") {
		t.Errorf("local bug-ii: exit %d, want 1 with the StrictDirectPaths trace; stdout:\n%s", code, out)
	}
	// A clean complete search and one a budget cuts short exit 0 and 3
	// both ways: a job the service ends as done is clean only when its
	// result says complete.
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-scenario", "pingpong", "-scale", "1"}, 0},
		{[]string{"-scenario", "pingpong", "-scale", "4", "-max-states", "50"}, 3},
	} {
		for _, remote := range []bool{false, true} {
			args := c.args
			if remote {
				args = append([]string{"-server", ts.URL}, args...)
			}
			if out, errOut, code := run(t, args...); code != c.want {
				t.Errorf("nice %s: exit %d, want %d; stdout:\n%s\nstderr:\n%s", strings.Join(args, " "), code, c.want, out, errOut)
			}
		}
	}
	if _, errOut, code := run(t, "-server", ts.URL, "-scenario", "bug-ii", "-workers", "5000"); code != 2 || !strings.Contains(errOut, "workers: ") {
		t.Errorf("remote -workers 5000: exit %d, stderr %q; want exit 2 naming the field", code, errOut)
	}
	if _, errOut, code := run(t, "-server", ts.URL, "-scenario", "bug-ii", "-progress", "1s"); code != 2 || !strings.Contains(errOut, "local only") {
		t.Errorf("-progress with -server: exit %d, stderr %q; want exit 2", code, errOut)
	}
	// A deadline past what a time.Duration holds, and a topology past
	// MaxHosts, are usage errors naming the field both ways.
	for _, c := range [][]string{
		{"-scenario", "bug-ii", "-timeout-ms", "9223372036855", "timeout_ms: "},
		{"-scenario", "pyswitch-fattree", "-scale", "64", "scale: "},
	} {
		args, field := c[:len(c)-1], c[len(c)-1]
		for _, remote := range []bool{false, true} {
			if remote {
				args = append([]string{"-server", ts.URL}, args...)
			}
			if _, errOut, code := run(t, args...); code != 2 || !strings.Contains(errOut, field) {
				t.Errorf("nice %s: exit %d, stderr %q; want exit 2 naming %q", strings.Join(args, " "), code, errOut, field)
			}
		}
	}
}
