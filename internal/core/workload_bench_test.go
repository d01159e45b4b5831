package core_test

import (
	"context"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/scenarios"
)

func BenchmarkProfilePyswitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := scenarios.MustLookup("pyswitch-bench").Config(3)
		search.DFS().Search(context.Background(), cfg, core.EngineOptions{})
	}
}

func BenchmarkProfileLB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := scenarios.MustLookup("loadbalancer-bench").Config(4)
		search.DFS().Search(context.Background(), cfg, core.EngineOptions{})
	}
}
