package search

import (
	"context"
	"sync"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestPooledBuffersConcurrent hammers the expansion buffer pools from
// many goroutines — run under -race this proves the pooled event and
// enabled-transition buffers never leak across concurrent expansions.
// A concolic search runs alongside: both of its pools (search workers in
// expand, solver workers in solve) borrow from the same pools.
func TestPooledBuffersConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := Loop().Search(context.Background(), scenarioConfig("pingpong-se"),
			core.EngineOptions{Workers: 2, SymWorkers: 2})
		if !r.Complete {
			t.Errorf("concolic run beside the pool churn stopped early: %q", r.StopReason)
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ev := getEventBuf()
				ev = append(ev, core.Event{Kind: core.EvHostSend})
				tr := getTransBuf()
				tr = append(tr, core.Transition{Kind: core.THostSend})
				if len(ev) != 1 || len(tr) != 1 {
					t.Error("pooled buffer not reset to empty")
				}
				putTransBuf(tr)
				putEventBuf(ev)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkParallelPooled measures the parallel engine on the gated
// pyswitch workload with the buffer pools in the loop. Run with and
// without -race to confirm pooling does not regress either mode:
//
//	go test -bench BenchmarkParallelPooled -benchmem ./internal/search/
//	go test -race -bench BenchmarkParallelPooled ./internal/search/
func BenchmarkParallelPooled(b *testing.B) {
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
