// Command nice runs the NICE checker on the registered scenarios: the
// paper's layer-2 ping workload, the eleven bug scenarios of §8, and
// the scaled bench workloads (see the scenarios registry).
//
// Usage:
//
//	nice -scenario bug-ii                 # find BUG-II, print the trace
//	nice -scenario bug-vii -strategy flow-ir
//	nice -scenario pingpong -scale 3      # exhaustive search, no properties
//	nice -scenario pingpong -scale 3 -workers 8   # parallel search
//	nice -scenario pingpong -scale 3 -reduction dpor   # partial-order reduction
//	nice -scenario bug-ix -walks 100 -steps 50 -seed 7 -workers 4
//	nice -scenario pingpong-se -engine concolic -sym-workers 4
//	nice -scenario pingpong -scale 4 -timeout-ms 2000 -progress 500ms
//	nice -spec scenario.json -max-states 5000
//	nice -server http://localhost:8080 -scenario bug-ii
//	nice -list                            # enumerate scenarios, engines, reductions
//
// The flags state one search as a nice.JobRequest, one flag per
// request field, so the search is the same in-process
// (nice.RunRequest) and, with -server, as a job on `nice serve` whose
// result stream nice follows. With no -engine, -sym-budget/-sym-workers
// select the concolic loop, -walks/-steps the random walks (the swarm
// with -workers), and anything else the full search on -workers
// workers (0 = one; -engine parallel with -workers 0 uses all CPUs).
//
// -list, -progress (snapshots to stderr), -metrics-addr (live /metrics,
// /trace, /debug/vars, /debug/pprof) and -metrics-out (the final
// telemetry snapshot, as nice.LoadTelemetrySnapshot reads it) are
// local only, and also work under run-all; -tenant is remote only.
// Ctrl-C cancels a local search, which prints its partial, replayable
// result.
//
// Exit codes, local and remote alike: 0 = clean complete search; 1 =
// property violation found; 2 = usage error (or, remotely, a transport
// error); 3 = budget, deadline or cancellation cut the search short
// with no violation (the printed counts are a partial but replayable
// result).
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
// checking service — serve.go) and the clients watch / replay beside
// the -server mode (client.go).
package main

import (
	"cmp"
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
		case "watch":
			clientWatch(os.Args[2:])
			return
		case "replay":
			clientReplay(os.Args[2:])
			return
		}
	}
	runOne(ctx, os.Args[1:])
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
			if fixed && !sc.HasFixed() {
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
		return scenarios.StrategyNames(), nil
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

// runOne states one search as a JobRequest — one flag per request
// field — and runs it in-process through nice.RunRequest or, with
// -server, on a `nice serve` instance, following its result stream.
func runOne(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("nice", flag.ExitOnError)
	var req nice.JobRequest
	req.Flags(fs)
	var (
		list     = fs.Bool("list", false, "local only: list scenarios, engines and reductions, and exit")
		progress = fs.Duration("progress", 0, "local only: stream progress snapshots to stderr at this interval")
		metrAddr = fs.String("metrics-addr", "", "local only: serve live metrics/trace/pprof on this address while the search runs")
		metrOut  = fs.String("metrics-out", "", "local only: write the final telemetry snapshot as JSON to this file")
		server   = fs.String("server", "", "run the search as a job on the nice serve at this `URL` instead of in-process")
		tenant   = fs.String("tenant", "", "remote only: tenant name (X-Nice-Tenant)")
	)
	fs.Parse(args)
	if fs.NArg() > 0 {
		if fs.Arg(0) == "submit" {
			fmt.Fprintln(os.Stderr, `nice: there is no "submit" subcommand: give nice the same flags plus -server URL`)
		} else {
			fmt.Fprintf(os.Stderr, "nice: unexpected argument %q\n", fs.Arg(0))
		}
		os.Exit(2)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	local := set["list"] || set["progress"] || set["metrics-addr"] || set["metrics-out"]
	if *server != "" && local {
		fmt.Fprintln(os.Stderr, "nice: -list, -progress, -metrics-addr and -metrics-out are local only; drop them or -server")
		os.Exit(2)
	}
	if *server == "" && set["tenant"] {
		fmt.Fprintln(os.Stderr, "nice: -tenant needs -server")
		os.Exit(2)
	}

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range scenarios.All() {
			name := sc.Name
			if sc.ScaleName != "" {
				name += fmt.Sprintf(" (-scale N: %s)", sc.ScaleName)
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
	if *server != "" {
		os.Exit(submit(newClient(*server, *tenant), &req))
	}

	var opts []nice.RunOption
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

	report, err := nice.RunRequest(ctx, &req, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nice:", err)
		os.Exit(2)
	}
	if *metrOut != "" {
		writeMetrics(*metrOut, reg)
	}

	fmt.Printf("%s (%s, %s): %d transitions, %d unique states, %d concolic runs, %v\n",
		label(&req), cmp.Or(req.Strategy, "pkt-seq"), report.Strategy, report.Transitions,
		report.UniqueStates, report.SERuns, report.Elapsed)
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

// label names the checked scenario in the summary line: its name, the
// scale asked for and whether the repaired application ran.
func label(req *nice.JobRequest) string {
	name := req.Scenario
	if req.Spec != nil {
		name = req.Spec.Name
	}
	if req.Scale > 0 {
		name = fmt.Sprintf("%s(%d)", name, req.Scale)
	}
	if req.Fixed {
		name += " (fixed app)"
	}
	return name
}
