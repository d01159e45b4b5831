package search

import (
	"context"
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
