package nice_test

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"github.com/nice-go/nice"
)

// answer is what one search reports back to the front end that asked.
type answer struct {
	engine  string // Report.Strategy: the engine that actually ran
	stop    string
	starved bool
}

// A front end is asked the same question three ways.
type variant int

const (
	plain     variant = iota // one search, no limits
	deadline                 // one search under a 1 ns deadline
	exhausted                // two searches against a pool the first uses up
)

// asker puts a row's question to one front end and collects the answers:
// one for plain and deadline, two (in order) for exhausted.
type asker func(t *testing.T, v variant) []answer

// TestDispatch: every front end — Run's options, a Campaign, a
// JobRequest — states a search and search.Job.Run decides the rest, so
// they must agree on which engine a request means, on what a deadline
// does and on what an exhausted budget pool does. Each row is one way of
// asking; a front end that grows its own rule again fails its rows. A
// "service" row is a JobRequest, asked both in-process (RunRequest) and
// over HTTP, and the two answers must be the same.
func TestDispatch(t *testing.T) {
	rows := []struct {
		name, want string
		ask        asker
	}{
		{"Run()", "dfs", viaRun()},
		{"Run(WithWorkers(1))", "dfs", viaRun(nice.WithWorkers(1))},
		{"Run(WithWorkers(4))", "parallel", viaRun(nice.WithWorkers(4))},
		{"Run(WithWorkers(4),WithReduction(DPOR))", "dfs", viaRun(nice.WithWorkers(4), nice.WithReduction(nice.DPOR))},
		{"Run(WithWalks)", "walks", viaRun(nice.WithWalks(1, 4, 10))},
		{"Run(WithWalks,WithWorkers(2))", "swarm", viaRun(nice.WithWalks(1, 4, 10), nice.WithWorkers(2))},
		{"Run(WithSymWorkers(1))", "concolic", viaRun(nice.WithSymWorkers(1))},
		{"Run(WithEngine(dfs),WithWorkers(4))", "dfs", viaRun(nice.WithEngine(nice.SequentialDFS()), nice.WithWorkers(4))},
		{"Run(WithEngine(parallel),WithWorkers(1))", "parallel", viaRun(nice.WithEngine(nice.ParallelHybrid()), nice.WithWorkers(1))},

		{"Campaign{Workers:1}", "dfs", viaCampaign(1)},
		{"Campaign{Workers:4}", "parallel", viaCampaign(4)},
		{"Campaign{Workers:4}+WithReduction(DPOR)", "dfs", viaCampaign(4, nice.WithReduction(nice.DPOR))},
		{"Campaign{Workers:2}+WithWalks", "swarm", viaCampaign(2, nice.WithWalks(1, 4, 10))},
		{"Campaign{Workers:2}+WithSymWorkers(1)", "concolic", viaCampaign(2, nice.WithSymWorkers(1))},
		{"Campaign{Workers:4}+WithEngine(dfs)", "dfs", viaCampaign(4, nice.WithEngine(nice.SequentialDFS()))},

		{`service {} default 0`, "dfs", viaRequest(0, nice.JobRequest{})},
		{`service {} default 1`, "dfs", viaRequest(1, nice.JobRequest{})},
		{`service {workers:1} default 0`, "dfs", viaRequest(0, nice.JobRequest{Workers: 1})},
		{`service {workers:1} default 1`, "dfs", viaRequest(1, nice.JobRequest{Workers: 1})},
		{`service {workers:4} default 0`, "parallel", viaRequest(0, nice.JobRequest{Workers: 4})},
		{`service {workers:4} default 1`, "parallel", viaRequest(1, nice.JobRequest{Workers: 4})},
		{`service {} default 4`, "parallel", viaRequest(4, nice.JobRequest{})},
		{`service {engine:dfs,workers:4}`, "dfs", viaRequest(0, nice.JobRequest{Engine: "dfs", Workers: 4})},
		{`service {engine:DFS,workers:4}`, "dfs", viaRequest(0, nice.JobRequest{Engine: "DFS", Workers: 4})},
		{`service {engine:concolic,workers:2}`, "concolic", viaRequest(0, nice.JobRequest{Engine: "concolic", Workers: 2})},
		{`service {reduction:dpor}`, "dfs", viaRequest(0, nice.JobRequest{Reduction: "dpor"})},
		{`service {reduction:dpor} default 4`, "dfs", viaRequest(4, nice.JobRequest{Reduction: "dpor"})},
		{`service {sym_workers:1}`, "concolic", viaRequest(0, nice.JobRequest{SymWorkers: 1})},
		{`service {walks:4}`, "walks", viaRequest(0, nice.JobRequest{Walks: 4})},
		{`service {walks:4,workers:2}`, "swarm", viaRequest(0, nice.JobRequest{Walks: 4, Workers: 2})},
		{`service {max_depth:200}`, "dfs", viaRequest(0, nice.JobRequest{MaxDepth: 200})},
		{`service {all_violations}`, "dfs", viaRequest(0, nice.JobRequest{AllViolations: true})},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Run("engine", func(t *testing.T) {
				if got := row.ask(t, plain)[0]; got.engine != row.want || got.starved {
					t.Errorf("got %+v, want engine %q, not starved", got, row.want)
				}
			})
			t.Run("deadline", func(t *testing.T) {
				want := answer{row.want, string(nice.StopDeadline), false}
				if got := row.ask(t, deadline)[0]; got != want {
					t.Errorf("got %+v, want %+v", got, want)
				}
			})
			t.Run("exhausted", func(t *testing.T) {
				// The first search gets what the pool has and stops on it;
				// the second finds nothing left and never runs.
				want := []answer{
					{row.want, string(nice.StopMaxStates), true},
					{"", string(nice.StopDrawdown), true},
				}
				got := row.ask(t, exhausted)
				if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
					t.Errorf("got %+v, want %+v", got, want)
				}
			})
		})
	}
}

// TestDispatchArtifactV1: the request grew fields, and a trace artifact
// written before it did — a bug-ii violation persisted by a service of
// the previous wire, pinned byte for byte — still decodes and replays,
// and so does one whose request the wire now rejects.
func TestDispatchArtifactV1(t *testing.T) {
	data, err := os.ReadFile("testdata/trace_artifact_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	ta, err := nice.DecodeTraceArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nice.ReplayArtifact(ta)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reproduced || res.Property != "StrictDirectPaths" {
		t.Errorf("replay %+v, want StrictDirectPaths reproduced", res)
	}

	// The wire once took DPOR on the parallel engine; the reduction now
	// rejects that request, but an artifact recording it still replays.
	ta.Request.Engine, ta.Request.Reduction = "parallel", "dpor"
	if res, err := nice.ReplayArtifact(ta); err != nil || !res.Reproduced {
		t.Errorf("replay of a parallel DPOR job's artifact: %+v, %v", res, err)
	}
}

func viaRun(opts ...nice.RunOption) asker {
	return func(t *testing.T, v variant) []answer {
		switch v {
		case deadline:
			opts = append(opts[:len(opts):len(opts)], nice.WithDeadline(time.Nanosecond))
		case exhausted:
			t.Skip("Run draws on no pool")
		}
		r := nice.Run(context.Background(), pingpong(2), opts...)
		return []answer{{r.Strategy, string(r.StopReason), false}}
	}
}

func viaCampaign(workers int, extra ...nice.RunOption) asker {
	return func(t *testing.T, v variant) []answer {
		c := &nice.Campaign{
			Jobs:    []nice.CampaignJob{{Scenario: "pingpong"}},
			Workers: workers,
		}
		switch v {
		case deadline:
			c.JobTimeout = time.Nanosecond
		case exhausted:
			c.Jobs = append(c.Jobs, c.Jobs[0])
			c.TotalMaxStates = 1
		}
		var out []answer
		for _, res := range c.Run(context.Background(), extra...).Results {
			out = append(out, answer{res.Engine, res.StopReason, res.Outcome == nice.OutcomeStarved})
		}
		return out
	}
}

// viaRequest asks req both ways and checks the two answers agree: in
// process through RunRequest, and over HTTP to an in-process service
// with the given DefaultJobWorkers — which stands for `workers: 0`
// before the engine is inferred, so in process the request carries it.
// Only the service draws on a pool, so exhausted asks it alone.
func viaRequest(defaultWorkers int, req nice.JobRequest) asker {
	req.Scenario = "pingpong"
	return func(t *testing.T, v variant) []answer {
		got := viaService(defaultWorkers, req)(t, v)
		if v == exhausted {
			return got
		}
		local := req
		local.Workers = cmp.Or(local.Workers, defaultWorkers)
		var opts []nice.RunOption
		if v == deadline {
			opts = append(opts, nice.WithDeadline(time.Nanosecond))
		}
		r, err := nice.RunRequest(context.Background(), &local, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if in := (answer{r.Strategy, string(r.StopReason), false}); in != got[0] {
			t.Errorf("in process %+v, over HTTP %+v", in, got[0])
		}
		return got
	}
}

// viaService asks an in-process service with the given DefaultJobWorkers
// over HTTP. An exhausted tenant is turned away at submission, so the
// exhausted variant must get its second job admitted while the first
// still runs: the first is a search of servicePool states (far longer
// than a POST) and the server has one worker.
func viaService(defaultWorkers int, req nice.JobRequest) asker {
	const servicePool = 20000
	return func(t *testing.T, v variant) []answer {
		opts := nice.ServiceOptions{Workers: 1, DefaultJobWorkers: defaultWorkers}
		asks := 1
		switch v {
		case deadline:
			opts.JobTimeout = time.Nanosecond
		case exhausted:
			if req.Walks > 0 {
				t.Skip("a few random walks never use up the pool")
			}
			req.Scenario, req.Scale = "pyswitch-bench", 6
			opts.TenantMaxStates = servicePool
			asks = 2
		}
		s, err := nice.NewService(opts)
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

		body, _ := json.Marshal(req)
		ids := make([]string, asks)
		for i := range ids {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var st nice.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || st.ID == "" {
				t.Fatalf("submit %d: status %d, %v", i, resp.StatusCode, err)
			}
			ids[i] = st.ID
		}

		// The engine's name travels on the stream's final progress event,
		// the rest on the done event's result.
		var out []answer
		for _, id := range ids {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
			if err != nil {
				t.Fatal(err)
			}
			var a answer
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(nil, 1<<24)
			for sc.Scan() {
				var ev nice.ServiceEvent
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatal(err)
				}
				if ev.Progress != nil && ev.Progress.Final {
					a.engine = ev.Progress.Strategy
				}
				if ev.Type == "done" {
					if ev.Result == nil {
						t.Fatalf("job %s ended %s without a result", id, ev.State)
					}
					a.stop, a.starved = ev.Result.StopReason, ev.Result.Starved
					break
				}
			}
			resp.Body.Close()
			out = append(out, a)
		}
		return out
	}
}
