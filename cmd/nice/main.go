// Command nice runs the NICE checker on the registered scenarios: the
// paper's layer-2 ping workload, the eleven bug scenarios of §8, and
// the scaled bench workloads (see the scenarios registry).
//
// Usage:
//
//	nice -scenario bug-ii                 # find BUG-II, print the trace
//	nice -scenario bug-vii -strategy flow-ir
//	nice -scenario pingpong -pings 3      # exhaustive search, no properties
//	nice -scenario pingpong -pings 3 -workers 8   # parallel search
//	nice -scenario pingpong -pings 3 -reduction dpor   # partial-order reduction
//	nice -scenario bug-ix -mode walk -walks 100 -steps 50 -seed 7
//	nice -scenario pingpong-se -engine concolic -sym-workers 4
//	nice -scenario pingpong -pings 4 -timeout 2s -progress 500ms
//	nice -scenario pingpong -pings 4 -max-states 5000
//	nice -list                            # enumerate scenarios, engines, reductions
//
// Every search runs through nice.Run: -workers selects the parallel
// work-stealing engine (0 = all CPUs; the default 1 runs the
// sequential reference checker), -mode walk selects the seeded swarm,
// -engine picks any registered engine by name (-list enumerates them
// from the registry; "concolic" runs the model-checking × symbolic-
// execution feedback loop, with -sym-budget/-sym-workers bounding and
// sizing its solver side), and -timeout/-max-states/-max-transitions
// bound the search. With -progress, streaming snapshots (states/sec,
// frontier, depth) print to stderr as the search runs, and violations
// print as they are found.
//
// With -metrics-addr the process serves live introspection while the
// search runs (/metrics and /trace as JSON, /debug/vars, /debug/pprof);
// -metrics-out writes the final telemetry snapshot as JSON (the
// document nice.LoadTelemetrySnapshot reads back). Both flags also work
// under run-all, where the snapshot carries the campaign-scope
// aggregation.
//
// Ctrl-C cancels the search's context: the engines drain and the
// partial (replayable) result prints instead of the process dying
// mid-search.
//
// Exit codes: 0 = clean complete search; 1 = property violation found;
// 2 = usage error; 3 = budget, deadline or cancellation cut the search
// short with no violation (the printed counts are a partial but
// replayable result).
//
// The run-all subcommand fans a whole scenario × strategy campaign
// through the same engine concurrently, with shared budgets and a
// merged report (nice.Campaign):
//
//	nice run-all                          # every scenario, PKT-SEQ
//	nice run-all -scenarios table2 -strategies all -jobs 4
//	nice run-all -scenarios bug-ii,bug-iii -fixed
//	nice run-all -total-states 200000 -job-timeout 30s -json report.json
//
// run-all exit codes: 0 = every outcome as expected; 1 = an unexpected
// outcome (missed bug, unexpected violation, job error); 2 = usage
// error; 3 = expectations met so far but some searches were cut short
// by their own per-job budgets or deadlines (inconclusive); 4 =
// expectations met so far but the campaign-wide -total-states /
// -total-transitions drawdown starved at least one job — raise the
// shared budget and rerun, nothing is wrong with the scenarios.
//
// The other subcommands have their own files: experiments (the paper's
// Table 1, Figure 6 and §7 baseline — experiments.go), serve (the
// checking service — serve.go) and its clients submit / watch / replay
// (client.go).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"github.com/nice-go/nice"
	"github.com/nice-go/nice/scenarios"
)

// serveMetrics mounts the live-introspection mux (/metrics, /trace,
// /debug/vars, /debug/pprof) on addr in the background. Serve errors
// (port taken, bad addr) are reported but never kill the search.
func serveMetrics(addr string, reg *nice.Telemetry) {
	go func() {
		if err := http.ListenAndServe(addr, nice.TelemetryMux(reg)); err != nil {
			fmt.Fprintln(os.Stderr, "nice: metrics server:", err)
		}
	}()
}

// writeMetrics dumps the registry snapshot to path for offline
// consumption (nice.LoadTelemetrySnapshot, jq). A failed dump is a
// warning: the search result already printed and stays authoritative.
func writeMetrics(path string, reg *nice.Telemetry) {
	if err := reg.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "nice: metrics dump:", err)
	}
}

func main() {
	// Ctrl-C cancels the context: the engines drain and return a partial
	// but replayable report instead of dying mid-search, and the service
	// shuts down gracefully.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run-all":
			runAll(ctx, os.Args[2:])
			return
		case "serve":
			serve(ctx, os.Args[2:])
			return
		case "experiments":
			experiments(ctx, os.Args[2:])
			return
		case "submit":
			clientSubmit(os.Args[2:])
			return
		case "watch":
			clientWatch(os.Args[2:])
			return
		case "replay":
			clientReplay(os.Args[2:])
			return
		}
	}
	runOne(ctx)
}

// runAll is the campaign front end: scenario set × strategy set through
// nice.Campaign with shared budgets and a merged report.
func runAll(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("nice run-all", flag.ExitOnError)
	var (
		scenarioSet = fs.String("scenarios", "all", `comma-separated scenario names, or "all" / "table2"`)
		strategySet = fs.String("strategies", "pkt-seq", `comma-separated strategy columns, or "all"`)
		scale       = fs.Int("scale", 0, "scale for every scenario (0 = each scenario's default)")
		fixed       = fs.Bool("fixed", false, "check the repaired applications instead")
		jobs        = fs.Int("jobs", 2, "concurrently running jobs")
		workers     = fs.Int("workers", 1, "per-job search workers (0 = all CPUs, 1 = sequential checker)")
		jobTimeout  = fs.Duration("job-timeout", 0, "wall-clock budget per job")
		jobStates   = fs.Int64("job-max-states", 0, "unique-state budget per job")
		totalStates = fs.Int64("total-states", 0, "shared unique-state budget across all jobs")
		totalTrans  = fs.Int64("total-transitions", 0, "shared transition budget across all jobs")
		shareCaches = fs.Bool("share-caches", true, "share discover caches between strategy columns of one workload")
		cachePrune  = fs.Int("cache-prune", 0, "LRU bound on each shared cache set's entries, applied after each job (0 = unbounded)")
		jsonPath    = fs.String("json", "", `write the merged report as JSON to this file ("-" = stdout)`)
		metrAddr    = fs.String("metrics-addr", "", "serve live campaign metrics/trace/pprof on this address")
		metrOut     = fs.String("metrics-out", "", "write the final campaign telemetry snapshot as JSON to this file")
	)
	fs.Parse(args)

	names, err := resolveScenarioSet(*scenarioSet, *fixed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice run-all:", err)
		os.Exit(2)
	}
	strategies, err := resolveStrategySet(*strategySet)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice run-all:", err)
		os.Exit(2)
	}

	campaign := &nice.Campaign{
		Jobs:                nice.CampaignJobs(names, strategies, *scale, *fixed),
		Parallelism:         *jobs,
		Workers:             *workers,
		JobTimeout:          *jobTimeout,
		JobMaxStates:        *jobStates,
		TotalMaxStates:      *totalStates,
		TotalMaxTransitions: *totalTrans,
		ShareCaches:         *shareCaches,
		CachePrune:          *cachePrune,
	}
	if *metrAddr != "" || *metrOut != "" {
		campaign.Telemetry = nice.NewTelemetry()
	}
	if *metrAddr != "" {
		serveMetrics(*metrAddr, campaign.Telemetry)
	}

	report := campaign.Run(ctx)
	if *metrOut != "" {
		writeMetrics(*metrOut, campaign.Telemetry)
	}

	if *jsonPath != "" {
		if err := writeJSONReport(report, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "nice run-all:", err)
			os.Exit(2)
		}
	}
	if *jsonPath != "-" {
		report.WriteText(os.Stdout)
	}
	if code := report.ExitCode(); code != 0 {
		os.Exit(code)
	}
}

// resolveScenarioSet expands the -scenarios argument into registry
// names. With -fixed, "all" keeps only scenarios that have a repaired
// variant.
func resolveScenarioSet(set string, fixed bool) ([]string, error) {
	switch strings.ToLower(set) {
	case "all":
		var names []string
		for _, sc := range scenarios.All() {
			if fixed && sc.BuildFixed == nil {
				continue
			}
			names = append(names, sc.Name)
		}
		return names, nil
	case "table2":
		var names []string
		for _, sc := range scenarios.Table2() {
			names = append(names, sc.Name)
		}
		return names, nil
	}
	names := strings.Split(set, ",")
	for _, n := range names {
		if _, ok := scenarios.Lookup(n); !ok {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", n)
		}
	}
	return names, nil
}

// resolveStrategySet expands the -strategies argument into column
// names validated against scenarios.ParseStrategy.
func resolveStrategySet(set string) ([]string, error) {
	if strings.EqualFold(set, "all") {
		names := make([]string, len(scenarios.Strategies))
		for i, s := range scenarios.Strategies {
			names[i] = strings.ToLower(s.String())
		}
		return names, nil
	}
	names := strings.Split(set, ",")
	for _, n := range names {
		if _, ok := scenarios.ParseStrategy(n); !ok {
			return nil, fmt.Errorf("unknown strategy %q", n)
		}
	}
	return names, nil
}

// writeJSONReport writes the merged campaign report to a file or stdout.
func writeJSONReport(report *nice.CampaignReport, path string) error {
	if path == "-" {
		return report.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runOne(ctx context.Context) {
	var (
		scenario  = flag.String("scenario", "", "scenario to check (see -list)")
		strategy  = flag.String("strategy", "pkt-seq", "search strategy: pkt-seq, no-delay, flow-ir, unusual")
		pings     = flag.Int("pings", 0, "scale for the ping scenarios (0 = scenario default)")
		sends     = flag.Int("sends", 0, "scale for the bench scenarios (0 = scenario default)")
		scale     = flag.Int("scale", 0, "scale for any scenario's knob (see -list; 0 = scenario default)")
		mode      = flag.String("mode", "check", "check (full search) or walk (random walks)")
		engine    = flag.String("engine", "", "search engine: "+engineNames+" (default inferred from -mode/-workers)")
		reduction = flag.String("reduction", "none", "interleaving reduction: "+reductionNames+" (exhaustive engines only)")
		symBudget = flag.Int64("sym-budget", 0, "concolic loop: abort after this many symbolic discover explorations (0 = unbounded)")
		symPool   = flag.Int("sym-workers", 0, "concolic loop: solver worker pool size (0 = default)")
		seed      = flag.Int64("seed", 1, "random-walk seed")
		walks     = flag.Int("walks", 50, "number of random walks")
		steps     = flag.Int("steps", 100, "max transitions per walk")
		maxDepth  = flag.Int("max-depth", 0, "override the execution depth bound")
		maxTrans  = flag.Int64("max-transitions", 0, "abort the search after this many transitions")
		maxStates = flag.Int64("max-states", 0, "abort the search after this many unique states")
		timeout   = flag.Duration("timeout", 0, "abort the search after this wall-clock budget")
		progress  = flag.Duration("progress", 0, "stream progress snapshots to stderr at this interval")
		fixed     = flag.Bool("fixed", false, "check the repaired application instead")
		all       = flag.Bool("all-violations", false, "keep searching past the first violation")
		workers   = flag.Int("workers", 1, "parallel search workers (0 = all CPUs, 1 = sequential checker)")
		metrAddr  = flag.String("metrics-addr", "", "serve live metrics/trace/pprof on this address while the search runs")
		metrOut   = flag.String("metrics-out", "", "write the final telemetry snapshot as JSON to this file")
		list      = flag.Bool("list", false, "list scenarios and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range scenarios.All() {
			name := sc.Name
			if sc.ScaleName != "" {
				name += fmt.Sprintf(" (-%s N)", sc.ScaleName)
			}
			fmt.Printf("  %-24s %s\n", name, sc.Summary)
		}
		fmt.Println("\nengines (-engine):")
		for _, spec := range nice.EngineSpecs() {
			fmt.Printf("  %-24s %s\n", spec.Name, spec.Summary)
		}
		fmt.Println("\nreductions (-reduction):")
		for _, spec := range nice.ReductionSpecs() {
			fmt.Printf("  %-24s %s\n", spec.Name, spec.Summary)
		}
		return
	}

	cfg, name, err := buildConfig(*scenario, *pings, *sends, *scale, *fixed, *strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice:", err)
		os.Exit(2)
	}
	if *maxDepth > 0 {
		cfg.MaxDepth = *maxDepth
	}
	if *all {
		cfg.StopAtFirstViolation = false
	}

	red, ok := nice.ParseReduction(*reduction)
	if !ok {
		fmt.Fprintf(os.Stderr, "nice: unknown reduction %q (%s)\n", *reduction, reductionNames)
		os.Exit(2)
	}
	// Zero budgets and no reduction are Run's defaults already.
	opts := []nice.RunOption{
		nice.WithWorkers(*workers), nice.WithReduction(red), nice.WithDeadline(*timeout),
		nice.WithMaxTransitions(*maxTrans), nice.WithMaxStates(*maxStates),
	}
	switch *mode {
	case "check":
	case "walk":
		opts = append(opts, nice.WithWalks(*seed, *walks, *steps))
	default:
		fmt.Fprintf(os.Stderr, "nice: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *engine != "" {
		spec, ok := nice.LookupEngine(*engine)
		if !ok {
			fmt.Fprintf(os.Stderr, "nice: unknown engine %q (%s)\n", *engine, engineNames)
			os.Exit(2)
		}
		opts = append(opts, nice.WithEngine(spec.New()))
	}
	if *symBudget > 0 {
		opts = append(opts, nice.WithSymBudget(*symBudget))
	}
	if *symPool > 0 {
		opts = append(opts, nice.WithSymWorkers(*symPool))
	}
	if *progress > 0 {
		opts = append(opts,
			nice.WithProgressEvery(*progress),
			nice.WithObserver(nice.ObserverFuncs{
				Violation: func(v nice.Violation) {
					fmt.Fprintf(os.Stderr, "[found] %s: %v\n", v.Property, v.Err)
				},
				Progress: func(p nice.Progress) {
					fmt.Fprintf(os.Stderr,
						"[%s %7.1fs] %d transitions, %d states (%.0f/s), frontier %d, depth %d\n",
						p.Strategy, p.Elapsed.Seconds(), p.Transitions,
						p.UniqueStates, p.StatesPerSec, p.Frontier, p.Depth)
				},
			}))
	}

	var reg *nice.Telemetry
	if *metrAddr != "" || *metrOut != "" {
		reg = nice.NewTelemetry()
		opts = append(opts, nice.WithTelemetry(reg))
	}
	if *metrAddr != "" {
		serveMetrics(*metrAddr, reg)
	}

	report := nice.Run(ctx, cfg, opts...)
	if *metrOut != "" {
		writeMetrics(*metrOut, reg)
	}

	fmt.Printf("%s (%s, %s): %d transitions, %d unique states, %d concolic runs, %v\n",
		name, *strategy, report.Strategy, report.Transitions, report.UniqueStates,
		report.SERuns, report.Elapsed)
	if !report.Complete {
		fmt.Printf("search aborted (%s) — partial result\n", report.StopReason)
	}
	if len(report.Violations) == 0 {
		fmt.Println("no property violations found")
		if !report.Complete {
			os.Exit(3)
		}
		return
	}
	for i := range report.Violations {
		fmt.Printf("\n--- violation %d ---\n%s", i+1, report.Violations[i].String())
	}
	os.Exit(1)
}

// buildConfig resolves the scenario in the registry and hands it the
// scale, the buggy-or-repaired choice and the strategy column
// (Scenario.Resolve). The historical -pings/-sends spellings and the
// generic -scale flag all feed the scenario's one scale knob. A Build
// hook failing loudly on an invalid scale (e.g. an odd fat-tree arity)
// surfaces here as a usage error, not a crash.
func buildConfig(name string, pings, sends, generic int, fixed bool, strategy string) (*nice.Config, string, error) {
	if name == "" {
		return nil, "", fmt.Errorf("missing -scenario (try -list)")
	}
	sc, ok := scenarios.Lookup(name)
	if !ok {
		return nil, "", fmt.Errorf("unknown scenario %q (try -list)", name)
	}
	// No knob: reject an explicit -scale rather than run the fixed-size
	// scenario under a label claiming otherwise.
	if generic > 0 && sc.Scale(generic) == 0 {
		return nil, "", fmt.Errorf("scenario %q has no scale knob", sc.Name)
	}
	scale := generic
	if named := map[string]int{"pings": pings, "sends": sends}[sc.ScaleName]; named > 0 {
		scale = named
	}
	label := sc.Name
	if scale > 0 {
		label = fmt.Sprintf("%s(%d)", sc.Name, scale)
	}
	if fixed {
		label += " (fixed app)"
	}
	cfg, _, err := sc.Resolve(scale, strategy, fixed)
	return cfg, label, err
}

// engineNames / reductionNames render the registries for usage text —
// the same single source of truth the facade and service validate
// against, so the CLI's help can never drift from what Run accepts.
var (
	engineNames    = specNames(nice.EngineSpecs(), func(s nice.EngineSpec) string { return s.Name })
	reductionNames = specNames(nice.ReductionSpecs(), func(s nice.ReductionSpec) string { return s.Name })
)

func specNames[S any](specs []S, name func(S) string) string {
	names := make([]string, len(specs))
	for i, spec := range specs {
		names[i] = name(spec)
	}
	return strings.Join(names, ", ")
}
