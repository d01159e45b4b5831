// Benchmarks regenerating the paper's evaluation (§7–§8): one benchmark
// per table and figure, plus ablations of the design choices DESIGN.md
// §6 calls out. Run them all with
//
//	go test -bench=. -benchmem
//
// The benchmarks report, beyond ns/op, the search metrics the paper's
// tables hold: transitions, unique states, and (for Table 2) the
// transition count to the first violation.
package nice_test

import (
	"fmt"
	"testing"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

func reportSearch(b *testing.B, r *core.Report) {
	b.Helper()
	b.ReportMetric(float64(r.Transitions), "transitions")
	b.ReportMetric(float64(r.UniqueStates), "states")
}

// --- Table 1: NICE-MC vs NO-SWITCH-REDUCTION, layer-2 ping workload ---

func benchTable1(b *testing.B, pings int, noReduction bool) {
	var last *core.Report
	for i := 0; i < b.N; i++ {
		cfg := scenarios.PingPong(pings)
		cfg.NoSwitchReduction = noReduction
		last = core.NewChecker(cfg).Run()
	}
	reportSearch(b, last)
}

func BenchmarkTable1_NICEMC(b *testing.B) {
	for pings := 1; pings <= 3; pings++ {
		b.Run(fmt.Sprintf("pings=%d", pings), func(b *testing.B) {
			benchTable1(b, pings, false)
		})
	}
}

func BenchmarkTable1_NoSwitchReduction(b *testing.B) {
	for pings := 1; pings <= 3; pings++ {
		b.Run(fmt.Sprintf("pings=%d", pings), func(b *testing.B) {
			benchTable1(b, pings, true)
		})
	}
}

// --- Figure 6: strategy reductions on the same workload ---

func BenchmarkFigure6_NoDelay(b *testing.B) {
	for pings := 2; pings <= 3; pings++ {
		b.Run(fmt.Sprintf("pings=%d", pings), func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PingPong(pings)
				cfg.NoDelay = true
				last = core.NewChecker(cfg).Run()
			}
			reportSearch(b, last)
		})
	}
}

func BenchmarkFigure6_FlowIR(b *testing.B) {
	for pings := 2; pings <= 3; pings++ {
		b.Run(fmt.Sprintf("pings=%d", pings), func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PingPong(pings)
				cfg.FlowGroupKey = scenarios.PingGroup
				last = core.NewChecker(cfg).Run()
			}
			reportSearch(b, last)
		})
	}
}

// --- §7 comparison: the fine-grained off-the-shelf-style baseline ---

func BenchmarkBaselineFine(b *testing.B) {
	for pings := 1; pings <= 3; pings++ {
		b.Run(fmt.Sprintf("pings=%d", pings), func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				last = core.NewChecker(scenarios.BaselineFine(pings)).Run()
			}
			reportSearch(b, last)
		})
	}
}

// --- Table 2: time/transitions to the first violation, per bug and
// strategy. Missed cells report 0 found. ---

func BenchmarkTable2(b *testing.B) {
	for _, bug := range scenarios.AllBugs {
		for _, s := range scenarios.Strategies {
			bug, s := bug, s
			b.Run(fmt.Sprintf("%s/%s", bug, s), func(b *testing.B) {
				var last *core.Report
				for i := 0; i < b.N; i++ {
					cfg := scenarios.WithStrategy(scenarios.BugConfig(bug), bug, s)
					last = core.NewChecker(cfg).Run()
				}
				reportSearch(b, last)
				if last.FirstViolation() != nil {
					b.ReportMetric(1, "found")
				} else {
					b.ReportMetric(0, "found")
				}
			})
		}
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationCanonicalTable isolates the canonical-representation
// win at a fixed workload size.
func BenchmarkAblationCanonicalTable(b *testing.B) {
	for _, canonical := range []bool{true, false} {
		name := "canonical"
		if !canonical {
			name = "insertion-order"
		}
		b.Run(name, func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PingPong(3)
				cfg.NoSwitchReduction = !canonical
				last = core.NewChecker(cfg).Run()
			}
			reportSearch(b, last)
		})
	}
}

// BenchmarkAblationMicroSteps isolates the batched process_pkt
// transition against per-channel micro-steps.
func BenchmarkAblationMicroSteps(b *testing.B) {
	for _, micro := range []bool{false, true} {
		name := "batched"
		if micro {
			name = "micro-steps"
		}
		b.Run(name, func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PingPong(2)
				cfg.MicroSteps = micro
				last = core.NewChecker(cfg).Run()
			}
			reportSearch(b, last)
		})
	}
}

// BenchmarkAblationSE contrasts symbolic-execution packet discovery with
// the developer-supplied-repertoire strawman on the BUG-II hunt.
func BenchmarkAblationSE(b *testing.B) {
	b.Run("discover-packets", func(b *testing.B) {
		var last *core.Report
		for i := 0; i < b.N; i++ {
			last = core.NewChecker(scenarios.BugConfig(scenarios.BugII)).Run()
		}
		reportSearch(b, last)
		b.ReportMetric(float64(last.SERuns), "se-runs")
	})
	// The developer-supplied "relevant inputs" strawman (§2.2.1) in its
	// two outcomes: guessing the right packet finds the bug cheaply;
	// guessing wrong misses it entirely. discover_packets removes the
	// guess.
	b.Run("fixed-repertoire-lucky", func(b *testing.B) {
		var last *core.Report
		for i := 0; i < b.N; i++ {
			cfg := scenarios.BugConfig(scenarios.BugII)
			cfg.DisableSE = true
			cfg.Hosts[0].Repertoire = []nice.Header{cfg.Hosts[0].Seed}
			last = core.NewChecker(cfg).Run()
		}
		reportSearch(b, last)
		b.ReportMetric(b01(last.FirstViolation() != nil), "found")
	})
	b.Run("fixed-repertoire-wrong-guess", func(b *testing.B) {
		var last *core.Report
		for i := 0; i < b.N; i++ {
			cfg := scenarios.BugConfig(scenarios.BugII)
			cfg.DisableSE = true
			bcast := cfg.Hosts[0].Seed
			bcast.EthDst = nice.BroadcastEth
			cfg.Hosts[0].Repertoire = []nice.Header{bcast}
			last = core.NewChecker(cfg).Run()
		}
		reportSearch(b, last)
		b.ReportMetric(b01(last.FirstViolation() != nil), "found")
	})
}

func b01(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
