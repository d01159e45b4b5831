// Panic isolation, for the two schedulers that run other people's code:
// nice.Campaign and the service. Both tests live in this test binary —
// not beside Campaign — because they register a scenario, and the root
// package's golden sweeps enumerate the registry.
package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/service"
	"github.com/nice-go/nice/scenarios"
)

// boomProperty panics once an execution has shown it 20 events: faulty
// user code failing mid-search, on whichever goroutine the engine checks
// properties.
type boomProperty struct{ n int }

func (p *boomProperty) Name() string         { return "Boom" }
func (p *boomProperty) Clone() core.Property { c := *p; return &c }
func (p *boomProperty) StateKey() string     { return strconv.Itoa(p.n) }

func (p *boomProperty) AtQuiescence(*core.System) error { return nil }

func (p *boomProperty) OnEvents(_ *core.System, events []core.Event) error {
	if p.n += len(events); p.n >= 20 {
		panic("boom in property")
	}
	return nil
}

// registerBoom registers "test-boom": the SE ping workload (so the
// concolic loop has solver workers waiting when the panic hits) under
// the panicking property.
var registerBoom = sync.OnceFunc(func() {
	scenarios.Register(scenarios.Scenario{
		Name:    "test-boom",
		Summary: "test only: a property that panics mid-search",
		Build: func(int) *core.Config {
			cfg := scenarios.PingPongSE(2)
			cfg.Properties = append(cfg.Properties, &boomProperty{})
			return cfg
		},
	})
})

// requireNoLeak waits for the goroutine count to fall back to before.
func requireNoLeak(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCampaignPanicIsolation: a job whose property panics ends as an
// error row — under every engine, including the ones that check
// properties on their own worker goroutines, where the panic used to
// bypass runJob's recover and kill the process — the next job still
// runs, and no goroutine outlives the panicked search.
func TestCampaignPanicIsolation(t *testing.T) {
	registerBoom()
	for _, spec := range nice.EngineSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c := &nice.Campaign{
				Jobs:    []nice.CampaignJob{{Scenario: "test-boom"}, {Scenario: "pingpong"}},
				Workers: 2,
			}
			r := c.Run(context.Background(), nice.WithEngine(spec.New()))
			if res := r.Results[0]; res.Outcome != nice.OutcomeError || !strings.Contains(res.Err, "boom in property") {
				t.Errorf("panicking job: outcome %q, err %q; want error / boom in property", res.Outcome, res.Err)
			}
			if res := r.Results[1]; res.Outcome != nice.OutcomeClean {
				t.Errorf("job after the panic: outcome %q (err %q), want clean", res.Outcome, res.Err)
			}
			requireNoLeak(t, before)
		})
	}
}

// TestServicePanicIsolation: tenant A's job panics in its property and
// ends `error` — its stream still closes with done, the running gauge
// is restored, service.jobs_errored counts it — tenant B's next job on
// the same (single) worker completes, and after shutdown no goroutine
// of the panicked search is left.
func TestServicePanicIsolation(t *testing.T) {
	registerBoom()
	for _, spec := range nice.EngineSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s, err := service.New(service.Options{Workers: 1, ProgressEvery: 10 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())

			boom := submit(t, ts, "tenant-a", fmt.Sprintf(
				`{"scenario": "test-boom", "engine": %q, "workers": 2}`, spec.Name))
			evs := collectStream(t, ts, boom.ID)
			if last := evs[len(evs)-1]; last.Type != "done" || last.State != service.StateError {
				t.Errorf("panicking job's stream ended %s/%s, want done/error", last.Type, last.State)
			}
			resp, err := http.Get(ts.URL + "/v1/jobs/" + boom.ID)
			if err != nil {
				t.Fatal(err)
			}
			var status service.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&status)
			resp.Body.Close()
			if err != nil || !strings.Contains(status.Error, "boom in property") {
				t.Errorf("panicking job's status carries %q (%v), want the panic text", status.Error, err)
			}

			ok := submit(t, ts, "tenant-b", fmt.Sprintf(
				`{"scenario": "pingpong", "engine": %q, "workers": 2}`, spec.Name))
			evs = collectStream(t, ts, ok.ID)
			if last := evs[len(evs)-1]; last.State != service.StateDone {
				t.Errorf("the next tenant's job ended %s, want done", last.State)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			ts.Close()
			requireNoLeak(t, before)

			// Read after Shutdown: a worker restores the gauge only after
			// its job's done event is out.
			snap := s.Telemetry().Snapshot()
			if got := snap.Counter("service.jobs_errored"); got != 1 {
				t.Errorf("service.jobs_errored = %d, want 1", got)
			}
			if got := snap.Gauge("service.jobs_running"); got != 0 {
				t.Errorf("service.jobs_running = %d after both jobs, want 0", got)
			}
		})
	}
}
