package nice_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// TestDispatch: every front end — Run's options, a Campaign, a service
// JobRequest — states a search and core.Job.Run decides the rest, so
// the three must agree on which engine a request means, on what a
// deadline does and on what an exhausted budget pool does. Each row is
// one way of asking; a front end that grows its own rule again fails its
// rows.
func TestDispatch(t *testing.T) {
	rows := []struct {
		name, want string
		ask        asker
	}{
		{"Run()", "dfs", viaRun()},
		{"Run(WithWorkers(1))", "dfs", viaRun(nice.WithWorkers(1))},
		{"Run(WithWorkers(4))", "parallel", viaRun(nice.WithWorkers(4))},
		{"Run(WithWalks)", "walks", viaRun(nice.WithWalks(1, 4, 10))},
		{"Run(WithWalks,WithWorkers(2))", "swarm", viaRun(nice.WithWalks(1, 4, 10), nice.WithWorkers(2))},
		{"Run(WithSymWorkers(1))", "concolic", viaRun(nice.WithSymWorkers(1))},
		{"Run(WithEngine(dfs),WithWorkers(4))", "dfs", viaRun(nice.WithEngine(nice.SequentialDFS()), nice.WithWorkers(4))},

		{"Campaign{Workers:1}", "dfs", viaCampaign(1)},
		{"Campaign{Workers:4}", "parallel", viaCampaign(4)},
		{"Campaign{Workers:2}+WithWalks", "swarm", viaCampaign(2, nice.WithWalks(1, 4, 10))},
		{"Campaign{Workers:2}+WithSymWorkers(1)", "concolic", viaCampaign(2, nice.WithSymWorkers(1))},
		{"Campaign{Workers:4}+WithEngine(dfs)", "dfs", viaCampaign(4, nice.WithEngine(nice.SequentialDFS()))},

		{`service {} default 0`, "dfs", viaService(0, nice.JobRequest{})},
		{`service {} default 1`, "dfs", viaService(1, nice.JobRequest{})},
		{`service {workers:1} default 0`, "dfs", viaService(0, nice.JobRequest{Workers: 1})},
		{`service {workers:1} default 1`, "dfs", viaService(1, nice.JobRequest{Workers: 1})},
		{`service {workers:4} default 0`, "parallel", viaService(0, nice.JobRequest{Workers: 4})},
		{`service {workers:4} default 1`, "parallel", viaService(1, nice.JobRequest{Workers: 4})},
		{`service {} default 4`, "parallel", viaService(4, nice.JobRequest{})},
		{`service {engine:dfs,workers:4}`, "dfs", viaService(0, nice.JobRequest{Engine: "dfs", Workers: 4})},
		{`service {engine:concolic,workers:2}`, "concolic", viaService(0, nice.JobRequest{Engine: "concolic", Workers: 2})},
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

// viaService asks an in-process service with the given DefaultJobWorkers
// over HTTP. An exhausted tenant is turned away at submission, so the
// exhausted variant must get its second job admitted while the first
// still runs: the first is a search of servicePool states (far longer
// than a POST) and the server has one worker.
func viaService(defaultWorkers int, req nice.JobRequest) asker {
	const servicePool = 20000
	return func(t *testing.T, v variant) []answer {
		req.Scenario = "pingpong"
		opts := nice.ServiceOptions{Workers: 1, DefaultJobWorkers: defaultWorkers}
		asks := 1
		switch v {
		case deadline:
			opts.JobTimeout = time.Nanosecond
		case exhausted:
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
