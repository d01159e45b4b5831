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
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/internal/bench"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/internal/sym"
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

// --- Parallel search (internal/search) ---

// BenchmarkParallelSearch measures the work-stealing engine against the
// sequential reference (workers=1 delegates to core.Checker) on the
// scaled pyswitch Table-2 scenario, at 1, 4 and NumCPU workers. The
// wall-clock ratio between the workers=1 and workers=4 rows is the
// speedup the BENCH trajectory tracks; on a multi-core machine it
// should reach ≥2× at 4 workers (a single-core container can only show
// the engine's overhead).
func BenchmarkParallelSearch(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PyswitchBench(3)
				last = search.New(cfg, search.Options{Workers: workers}).Run()
			}
			reportSearch(b, last)
		})
	}
}

// BenchmarkParallelSwarm measures the seeded random-walk swarm on the
// same workload (walk i always runs seed+i; since this scenario runs
// with symbolic execution, trajectories may shift slightly with
// worker scheduling as the shared discover caches fill).
func BenchmarkParallelSwarm(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var last *core.Report
			for i := 0; i < b.N; i++ {
				cfg := scenarios.PyswitchBench(3)
				last = search.New(cfg, search.Options{
					Strategy: search.Swarm, Workers: workers,
					Seed: 1, Walks: 64, Steps: 80,
				}).Run()
			}
			reportSearch(b, last)
		})
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

// BenchmarkSolver measures the finite-domain solver on a representative
// path condition (three constrained MAC variables).
func BenchmarkSolver(b *testing.B) {
	problem := sym.Problem{
		Domains: []sym.Domain{
			{Var: "dl_src", Candidates: []uint64{2, 4, 6, 0xffffffffffff, 0x0abbccddee01}},
			{Var: "dl_dst", Candidates: []uint64{2, 4, 6, 0xffffffffffff, 0x0abbccddee01}},
			{Var: "dl_type", Candidates: []uint64{0x800, 0x806}},
		},
		Constraints: []sym.Expr{
			sym.Bin{Op: sym.OpEq, A: sym.Bin{Op: sym.OpAnd,
				A: sym.Bin{Op: sym.OpShr, A: sym.Var{Name: "dl_src"}, B: sym.Const(40)},
				B: sym.Const(1)}, B: sym.Const(0)},
			sym.Bin{Op: sym.OpNe, A: sym.Var{Name: "dl_dst"}, B: sym.Const(2)},
			sym.Bin{Op: sym.OpEq, A: sym.Var{Name: "dl_type"}, B: sym.Const(0x800)},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := sym.Solve(problem); !ok {
			b.Fatal("unsat")
		}
	}
}

// BenchmarkConcolicDiscovery measures one discover_packets execution
// (pyswitch handler, single-switch topology).
func BenchmarkConcolicDiscovery(b *testing.B) {
	cfg := scenarios.BugConfig(scenarios.BugII)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := core.NewSimulator(cfg)
		if _, _, err := sim.Step(0); err != nil { // discover_packets
			b.Fatal(err)
		}
	}
}

// BenchmarkStateHash measures canonical serialization + hashing of a
// mid-search system state.
func BenchmarkStateHash(b *testing.B) {
	sim := core.NewSimulator(scenarios.PingPong(3))
	for i := 0; i < 6; i++ {
		if len(sim.Enabled()) == 0 {
			break
		}
		sim.Step(0)
	}
	sys := sim.System()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Hash()
	}
}

// BenchmarkHash compares the incremental fingerprint against the
// reflective full-reserialization oracle on identical mid-search states
// of the scaled pyswitch workload. Each measured op is one Fingerprint
// of a freshly forked child (clone + one applied transition, which
// dirties exactly the touched components); corpus rebuilding runs off
// the clock. The incremental/oracle states-per-second ratio is the
// BENCH trajectory's hash-speedup headline (≥2x required).
func BenchmarkHash(b *testing.B) {
	for _, mode := range []string{"incremental", "reflective-oracle"} {
		b.Run(mode, func(b *testing.B) {
			hc := bench.NewHashCorpus(mode == "reflective-oracle")
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for n := 0; n < b.N; n++ {
				if i == 0 {
					b.StopTimer()
					hc.Rebuild(n)
					b.StartTimer()
				}
				_ = hc.Children[i].Fingerprint()
				i = (i + 1) % bench.HashBatch
			}
			b.ReportMetric(float64(time.Second)/float64(b.Elapsed())*float64(b.N), "states-hashed/sec")
		})
	}
}

// BenchmarkClone measures the per-transition state fork.
func BenchmarkClone(b *testing.B) {
	sim := core.NewSimulator(scenarios.PingPong(3))
	for i := 0; i < 6; i++ {
		if len(sim.Enabled()) == 0 {
			break
		}
		sim.Step(0)
	}
	sys := sim.System()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sys.Clone()
	}
}

// BenchmarkRandomWalk measures the simulator's random-walk mode.
func BenchmarkRandomWalk(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		nice.Run(ctx, scenarios.PingPong(2), nice.WithWalks(int64(i), 10, 50))
	}
}
