package core_test

import (
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestDPORSummarySharing holds the reduced search to storing each
// distinct subtree summary once. Summaries repeat across states — the
// same few hidden transitions sit below many interleavings — so on the
// registry's bench scenarios the summary store holds a small fraction
// of the entries a per-state copy would (about 9 a state).
func TestDPORSummarySharing(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		budget   float64
	}{
		{"pyswitch-bench", 2},
		{"loadbalancer-bench", 4},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			t.Parallel()
			cfg := scenarios.MustLookup(tc.scenario).Config(0)
			entries, states := core.DPORSummaryStorage(t.Context(), cfg, 60000)
			perState := float64(entries) / float64(states)
			t.Logf("%d states, %d stored summary entries, %.2f a state", states, entries, perState)
			if perState > tc.budget {
				t.Errorf("%.2f stored summary entries a state, budget %.0f", perState, tc.budget)
			}
		})
	}
}
