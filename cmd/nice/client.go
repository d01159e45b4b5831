// The submit / watch / replay subcommands are the `nice serve` client
// mode: submit a registry scenario or an inline spec file over HTTP,
// follow a job's NDJSON result stream, and fetch-and-replay persisted
// trace artifacts.
//
//	nice submit -server http://localhost:8080 -scenario bug-ii -watch
//	nice submit -server http://localhost:8080 -spec scenario.json
//	nice watch  -server http://localhost:8080 j1
//	nice replay -server http://localhost:8080 <artifact-id>
//
// submit/watch exit 0 when the job completes clean, 1 when it reports
// a violation, 2 on usage or transport errors (a sealed job none of
// whose violations the server could re-read counts as one), 3 when the
// job was cut short (canceled, budget, deadline). replay exits 0 only
// when the artifact reproduces its recorded violation fingerprint and
// the fetched bytes hash to the id asked for.
package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/nice-go/nice"
)

// client is the minimal `nice serve` HTTP client shared by the
// subcommands.
type client struct {
	base   string
	tenant string
	http   *http.Client
}

func newClient(server, tenant string) *client {
	return &client{
		base:   strings.TrimRight(server, "/"),
		tenant: tenant,
		http:   &http.Client{},
	}
}

func (c *client) do(method, path string, body io.Reader, timeout time.Duration) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		req.Header.Set(nice.ServiceTenantHeader, c.tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	cl := c.http
	if timeout > 0 {
		cl = &http.Client{Timeout: timeout}
	}
	return cl.Do(req)
}

// decodeOrDie decodes a JSON response body, failing the process on
// transport or server errors.
func decodeOrDie(resp *http.Response, err error, v any) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice:", err)
		os.Exit(2)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		fmt.Fprintf(os.Stderr, "nice: server: %s (%s)\n", e.Error, resp.Status)
		os.Exit(2)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		fmt.Fprintln(os.Stderr, "nice: decoding response:", err)
		os.Exit(2)
	}
}

// clientSubmit posts one job; with -watch it follows the stream to the
// terminal event and exits accordingly.
func clientSubmit(args []string) {
	fs := flag.NewFlagSet("nice submit", flag.ExitOnError)
	var (
		server   = fs.String("server", "http://localhost:8080", "`nice serve` base URL")
		tenant   = fs.String("tenant", "", "tenant name (X-Nice-Tenant)")
		scenario = fs.String("scenario", "", "registry scenario name")
		specPath = fs.String("spec", "", "path to a wire-spec JSON file (- = stdin)")
		scale    = fs.Int("scale", 0, "scenario scale (0 = default)")
		strategy = fs.String("strategy", "", "search strategy (pkt-seq, no-delay, flow-ir, unusual)")
		fixed    = fs.Bool("fixed", false, "check the repaired application")
		engine   = fs.String("engine", "", "search engine: "+engineNames+" (empty = server default)")
		workers  = fs.Int("workers", 0, "engine workers (0 = server default)")
		states   = fs.Int64("max-states", 0, "unique-state budget (0 = server default)")
		trans    = fs.Int64("max-transitions", 0, "transition budget (0 = server default)")
		timeout  = fs.Duration("timeout", 0, "search wall-clock budget (0 = server default)")
		watch    = fs.Bool("watch", false, "follow the result stream after submitting")
	)
	fs.Parse(args)
	if (*scenario == "") == (*specPath == "") {
		fmt.Fprintln(os.Stderr, "nice submit: exactly one of -scenario and -spec required")
		os.Exit(2)
	}

	req := nice.JobRequest{
		Scenario:       *scenario,
		Scale:          *scale,
		Strategy:       *strategy,
		Fixed:          *fixed,
		Engine:         *engine,
		Workers:        *workers,
		MaxStates:      *states,
		MaxTransitions: *trans,
		TimeoutMS:      timeout.Milliseconds(),
	}
	if *specPath != "" {
		data, err := readPath(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nice submit:", err)
			os.Exit(2)
		}
		if err := json.Unmarshal(data, &req.Spec); err != nil {
			fmt.Fprintln(os.Stderr, "nice submit: parsing spec:", err)
			os.Exit(2)
		}
	}
	body, _ := json.Marshal(req)

	c := newClient(*server, *tenant)
	var st nice.JobStatus
	resp, err := c.do("POST", "/v1/jobs", bytes.NewReader(body), 30*time.Second)
	decodeOrDie(resp, err, &st)
	fmt.Printf("submitted %s (%s)\n", st.ID, st.State)
	if *watch {
		os.Exit(streamJob(c, st.ID))
	}
}

// clientWatch attaches to an existing job's stream.
func clientWatch(args []string) {
	fs := flag.NewFlagSet("nice watch", flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8080", "`nice serve` base URL")
		tenant = fs.String("tenant", "", "tenant name (X-Nice-Tenant)")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: nice watch [-server URL] <job-id>")
		os.Exit(2)
	}
	os.Exit(streamJob(newClient(*server, *tenant), fs.Arg(0)))
}

// streamJob follows one job's NDJSON stream to its done event,
// printing progress and violations, and maps the terminal state to an
// exit code.
func streamJob(c *client, id string) int {
	resp, err := c.do("GET", "/v1/jobs/"+id+"/stream", nil, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice:", err)
		return 2
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "nice: server: %s\n", resp.Status)
		return 2
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	violations, unread := 0, 0
	for sc.Scan() {
		var ev nice.ServiceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			fmt.Fprintln(os.Stderr, "nice: bad stream line:", err)
			return 2
		}
		switch ev.Type {
		case "status":
			fmt.Printf("%s: %s\n", ev.Job, ev.State)
		case "violation":
			violations++
			fmt.Printf("%s: VIOLATION %s: %s (artifact fingerprint %s)\n",
				ev.Job, ev.Violation.Property, ev.Violation.Message, ev.Violation.Fingerprint)
		case "progress":
			if ev.Progress.Final {
				fmt.Printf("%s: final: %d states, %d transitions in %dms\n",
					ev.Job, ev.Progress.UniqueStates, ev.Progress.Transitions, ev.Progress.ElapsedMS)
			}
		case "error": // only in the stream rebuilt for a sealed job
			unread++
			fmt.Fprintf(os.Stderr, "%s: could not be re-read: %s\n", ev.Job, ev.Error)
		case "done":
			fmt.Printf("%s: %s", ev.Job, ev.State)
			if r := ev.Result; r != nil {
				fmt.Printf(" — %d violations, stop=%s", len(r.Violations), orDash(r.StopReason))
				for _, a := range r.TraceArtifacts {
					fmt.Printf("\n%s: trace artifact %s", ev.Job, a)
				}
			}
			fmt.Println()
			switch {
			case violations > 0:
				return 1
			case unread > 0: // what the job found is no longer on the server
				return 2
			case ev.State == "done":
				return 0
			default: // canceled / error
				return 3
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "nice: stream:", err)
	}
	return 2 // stream ended without a done event
}

// clientReplay fetches a trace artifact and re-executes it locally,
// asserting the recorded violation reproduces.
func clientReplay(args []string) {
	fs := flag.NewFlagSet("nice replay", flag.ExitOnError)
	var (
		server = fs.String("server", "http://localhost:8080", "`nice serve` base URL")
		file   = fs.String("file", "", "replay a local artifact file instead of fetching")
	)
	fs.Parse(args)

	var data []byte
	var err error
	switch {
	case *file != "":
		data, err = readPath(*file)
	case fs.NArg() == 1:
		var resp *http.Response
		resp, err = newClient(*server, "").do("GET", "/v1/artifacts/"+fs.Arg(0), nil, 30*time.Second)
		if err == nil {
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fmt.Fprintf(os.Stderr, "nice replay: server: %s\n", resp.Status)
				os.Exit(2)
			}
			data, err = io.ReadAll(resp.Body)
			// An artifact is named by its content: bytes that do
			// not hash to the id asked for are not that artifact.
			if sum := sha256.Sum256(data); err == nil && hex.EncodeToString(sum[:]) != fs.Arg(0) {
				err = fmt.Errorf("artifact %s: fetched content does not match its id", fs.Arg(0))
			}
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: nice replay [-server URL] <artifact-id> | nice replay -file trace.json")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice replay:", err)
		os.Exit(2)
	}

	ta, err := nice.DecodeTraceArtifact(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice replay:", err)
		os.Exit(2)
	}
	res, err := nice.ReplayArtifact(ta)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice replay:", err)
		os.Exit(2)
	}
	if !res.Reproduced {
		fmt.Printf("NOT REPRODUCED: expected %s, replay found %s\n", res.Expected, orDash(res.Fingerprint))
		os.Exit(1)
	}
	fmt.Printf("reproduced %s (%s)\n", res.Property, res.Fingerprint)
}

func readPath(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
