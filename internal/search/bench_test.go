package search

import (
	"context"
	"runtime"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// BenchmarkParallel measures the parallel engine on a small pyswitch
// workload, the workers' scratch buffers in the loop:
//
//	go test -bench BenchmarkParallel -benchmem ./internal/search/
func BenchmarkParallel(b *testing.B) {
	cc := core.NewCaches()
	cfg := scenarios.MustLookup("pyswitch-bench").Config(2)
	eo := core.EngineOptions{Workers: 2, Caches: cc}
	Parallel().Search(context.Background(), cfg, eo) // warm discover caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := Parallel().Search(context.Background(), scenarios.MustLookup("pyswitch-bench").Config(2), eo)
		if len(r.Violations) == 0 {
			b.Fatal("expected the scaled pyswitch violation")
		}
	}
}

// BenchmarkConcolicTrio runs the concolic loop, 2 search workers and 2
// solver workers, over pingpong-se, loadbalancer-bench(3) and
// pyswitch-bench(3) with StopAtFirstViolation off, each from cold
// caches — the shape of the benchmark's concolic-cold workload, read
// without the harness:
//
//	go test -run xxx -bench BenchmarkConcolicTrio -benchmem ./internal/search/
//
// It reports allocs/state beside the per-op figures, since the number
// of states a cold loop explores moves with the schedule.
func BenchmarkConcolicTrio(b *testing.B) {
	trio := []struct {
		scenario string
		scale    int
	}{{"pingpong-se", 0}, {"loadbalancer-bench", 3}, {"pyswitch-bench", 3}}
	b.ReportAllocs()
	var states int64
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for i := 0; i < b.N; i++ {
		for _, t := range trio {
			cfg := scenarios.MustLookup(t.scenario).Config(t.scale)
			cfg.StopAtFirstViolation = false
			eo := core.EngineOptions{Workers: 2, SymWorkers: 2, Caches: core.NewCaches()}
			r := Loop().Search(context.Background(), cfg, eo)
			states += r.UniqueStates
		}
	}
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(states), "allocs/state")
}
