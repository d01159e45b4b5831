// The experiments subcommand regenerates the tables and figures of the
// paper's evaluation (§7) that only it prints:
//
//	nice experiments -table1 -maxpings 4   Table 1: NICE-MC vs NO-SWITCH-REDUCTION
//	nice experiments -figure6 -maxpings 4  Figure 6: NO-DELAY / FLOW-IR reductions
//	nice experiments -baseline             §7: NICE-MC vs the fine-grained baseline
//	nice experiments -all
//	nice experiments -all -workers 8       searches run on the parallel engine
//
// Table 2 (§8) is a campaign: nice run-all -scenarios table2 -strategies all.
//
// Absolute numbers differ from the paper's (Go vs Python, simplified
// substrate); the shapes under comparison are the reproduction targets —
// see EXPERIMENTS.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/scenarios"
)

// experiments is the harness front end. Every search goes through
// nice.Run with -workers: 1 = the sequential reference checker,
// otherwise the parallel work-stealing pool (0 = all CPUs).
func experiments(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("nice experiments", flag.ExitOnError)
	var (
		table1   = fs.Bool("table1", false, "run the Table 1 comparison")
		figure6  = fs.Bool("figure6", false, "run the Figure 6 strategy reductions")
		baseline = fs.Bool("baseline", false, "run the off-the-shelf-checker baseline comparison")
		all      = fs.Bool("all", false, "run everything")
		maxPings = fs.Int("maxpings", 4, "largest ping count for table1/figure6")
		workers  = fs.Int("workers", 1, "parallel search workers (0 = all CPUs, 1 = sequential checker)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Usage of nice experiments:")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "Table 2 is a campaign: nice run-all -scenarios table2 -strategies all")
	}
	fs.Parse(args)
	if !(*table1 || *figure6 || *baseline || *all) {
		fs.Usage()
		os.Exit(2)
	}

	run := func(cfg *nice.Config) *nice.Report {
		return nice.Run(ctx, cfg, nice.WithWorkers(*workers))
	}
	if *table1 || *all {
		runTable1(run, *maxPings)
	}
	if *figure6 || *all {
		runFigure6(run, *maxPings)
	}
	if *baseline || *all {
		runBaseline(run, min(*maxPings, 3))
	}
}

// searchFunc runs one search of the harness.
type searchFunc func(*nice.Config) *nice.Report

func runTable1(run searchFunc, maxPings int) {
	fmt.Println("Table 1: exhaustive search, NICE-MC vs NO-SWITCH-REDUCTION")
	fmt.Println("(layer-2 ping workload on A—s1—s2—B, MAC-learning controller, SE off)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tTransitions\tUnique states\tCPU time\tTransitions\tUnique states\tCPU time\trho")
	fmt.Fprintln(w, "\t— NICE-MC —\t\t\t— NO-SWITCH-REDUCTION —\t\t\t")
	for pings := 1; pings <= maxPings; pings++ {
		mc := run(scenarios.PingPong(pings))
		cfg := scenarios.PingPong(pings)
		cfg.NoSwitchReduction = true
		nr := run(cfg)
		rho := 1 - float64(mc.UniqueStates)/float64(nr.UniqueStates)
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%d\t%d\t%v\t%.2f\n",
			pings, mc.Transitions, mc.UniqueStates, round(mc.Elapsed),
			nr.Transitions, nr.UniqueStates, round(nr.Elapsed), rho)
	}
	w.Flush()
	fmt.Println()
}

func runFigure6(run searchFunc, maxPings int) {
	fmt.Println("Figure 6: relative state-space reduction of the search strategies vs NICE-MC")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tNO-DELAY trans.\tNO-DELAY CPU\tFLOW-IR trans.\tFLOW-IR CPU")
	for pings := 2; pings <= maxPings; pings++ {
		base := run(scenarios.PingPong(pings))

		nd := scenarios.PingPong(pings)
		nd.NoDelay = true
		noDelay := run(nd)

		fir := scenarios.PingPong(pings)
		fir.FlowGroupKey = scenarios.PingGroup
		flowIR := run(fir)

		fmt.Fprintf(w, "%d\t%.2f\t%.2f\t%.2f\t%.2f\n", pings,
			reduction(base.Transitions, noDelay.Transitions),
			reduction(base.Elapsed, noDelay.Elapsed),
			reduction(base.Transitions, flowIR.Transitions),
			reduction(base.Elapsed, flowIR.Elapsed))
	}
	w.Flush()
	fmt.Println("(reduction = 1 - strategy/NICE-MC; higher is better)")
	fmt.Println()
}

func runBaseline(run searchFunc, maxPings int) {
	fmt.Println("§7 comparison: NICE-MC vs a fine-grained off-the-shelf-style checker")
	fmt.Println("(micro-step packet processing, raw switch state — DESIGN.md §2(3))")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Pings\tNICE-MC trans.\tNICE-MC CPU\tBaseline trans.\tBaseline CPU\tSpeed-up")
	for pings := 1; pings <= maxPings; pings++ {
		mc := run(scenarios.PingPong(pings))
		fine := run(scenarios.BaselineFine(pings))
		speedup := float64(fine.Elapsed) / float64(mc.Elapsed)
		fmt.Fprintf(w, "%d\t%d\t%v\t%d\t%v\t%.1fx\n",
			pings, mc.Transitions, round(mc.Elapsed),
			fine.Transitions, round(fine.Elapsed), speedup)
	}
	w.Flush()
	fmt.Println()
}

// reduction is 1 - strategy/base, over transition counts or durations.
func reduction[T int64 | time.Duration](base, strat T) float64 {
	return 1 - float64(strat)/float64(base)
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
