package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procStart approximates the process start: package initialization
// runs before main, so set-up time includes the runtime's own start.
var procStart = time.Now()

// env is what one run hands its workload.
type env struct {
	workload string
	seed     int64
	smoke    bool
	outDir   string
	pins     *pinFile
	// failures collects every verdict mismatch of the run (service
	// clients report theirs concurrently).
	mu       sync.Mutex
	failures []string
}

func (e *env) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(e.seed*7919 + salt)) }

func (e *env) failf(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// note records the failure of an op outside the measured loop (a
// warm-up, a step of the traced run), if it failed, and returns it.
func (e *env) note(what string, s sample) sample {
	if s.Err != "" {
		e.failf("%s %s: %s", e.workload, what, s.Err)
	}
	return s
}

// sample is one timed operation: one full search, one 44-cell sweep,
// one concolic trio or one service job from submit to done.
type sample struct {
	Wall        float64 `json:"wall_s"`
	States      int64   `json:"states"`
	Transitions int64   `json:"transitions"`
	// SERuns counts the op's symbolic explorations, Classes the packet
	// classes its cold caches ended with.
	SERuns  int64 `json:"se_runs"`
	Classes int64 `json:"classes"`
	// Err is empty when the op's verdict matched its pin.
	Err string `json:"err,omitempty"`
}

// measurement is the untraced measured loop of one run.
type measurement struct {
	Samples []sample
	// Wall is the time the ops took: the sum of op walls when they ran
	// one after another, the loop's wall when clients ran concurrently
	// (Concurrent), where no single op's rate is the system's.
	Wall       float64
	Mallocs    uint64
	Concurrent bool
	// PeakRSSMB is the resident-set high-water mark of each op (of
	// each segment of a concurrent loop).
	PeakRSSMB []float64
	// Cals are the calibrations taken beside the ops, in seconds.
	Cals []float64
}

// quiesce readies the process for a timed op: it collects the heap,
// returns its pages and restarts the kernel's resident-set high-water
// mark, so every op starts alike and the calibration loop's memory is
// not counted as the op's.
func quiesce() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM; where the kernel refuses,
	// peak_rss_mb falls back to the process-wide mark.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// repeat runs op again and again until d has passed or reps ops are
// done, quiescing before each and calibrating beside them.
func repeat(d time.Duration, reps int, op func() sample) measurement {
	var m measurement
	start := time.Now()
	for len(m.Samples) < reps {
		quiesce()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		s := op()
		s.Wall = time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		m.Samples = append(m.Samples, s)
		m.Wall += s.Wall
		m.Mallocs += after.Mallocs - before.Mallocs
		m.PeakRSSMB = append(m.PeakRSSMB, peakRSSMB())
		m.Cals = append(m.Cals, calibrateAfter(s.Wall)...)
		if time.Since(start) >= d {
			break
		}
	}
	return m
}

// stat summarizes one metric's samples inside a run, for the result
// file and -compare: the reported value, the quartiles, the count, and
// the highest percentile that still has ten samples beyond it.
type stat struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	TailP  int     `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	// Unresolved marks a median that the run's own samples do not pin
	// down to within the metric's bound: twice the inter-quartile
	// spread over √n — about two standard errors of a median of n
	// samples — is wider than the bound, so a difference that small
	// cannot be read off this run.
	Unresolved bool `json:"unresolved,omitempty"`
}

func newStat(def metricDef, value float64, series []float64) stat {
	st := stat{Value: value, Unit: def.Unit, Median: value, Q1: value, Q3: value, N: len(series)}
	if len(series) >= 2 {
		st.Q1, st.Median, st.Q3 = quartiles(series)
		if st.Median != 0 && def.Bound > 0 && len(series) >= 4 {
			st.Unresolved = 2*(st.Q3-st.Q1)/st.Median/math.Sqrt(float64(len(series))) > def.Bound
		}
	}
	// The highest percentile with at least ten samples beyond it.
	if n := len(series); n >= 20 {
		st.TailP = 100 * (n - 10) / n
		st.Tail = percentile(sortedCopy(series), st.TailP)
	}
	return st
}

// runResult is what one run of one workload reports: the contract's
// last-line object plus, in the run file, the per-metric statistics.
type runResult struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Traced    bool            `json:"traced"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Failures  []string        `json:"failures,omitempty"`
	Stats     map[string]stat `json:"stats"`
	// Raw holds the run's speed factor (see calibrate.go) and the
	// uncalibrated wall-clock medians behind the time metrics.
	Raw     map[string]float64 `json:"raw,omitempty"`
	Samples []sample           `json:"samples,omitempty"`
	Cals    []float64          `json:"calibrations_s,omitempty"`
	Env     map[string]string  `json:"env,omitempty"`
}

// contractLine renders the last line of standard output.
func (r *runResult) contractLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Stats[d.Name].Value, d.Unit}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// setupReps is how many times a run sets its workload up; set-up time
// is the median, so one slow start does not move it.
const setupReps = 3

// runWorkload performs one run: set-up (several times over), then the
// untraced measured loop or the traced run.
func runWorkload(w workload, e *env, d time.Duration, traced bool) (*runResult, error) {
	res := &runResult{Workload: w.name(), Seed: e.seed, Seconds: d.Seconds(), Traced: traced,
		Stats: map[string]stat{}}
	var setups, cals []float64
	var sess session
	reps := setupReps
	if traced || e.smoke {
		reps = 1 // neither reports a set-up time anyone compares
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		var err error
		if sess, err = w.setup(e); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", w.name(), err)
		}
		res.Attempted++ // the untimed warm-up op is checked like any other
		setups = append(setups, time.Since(t0).Seconds())
		if !traced {
			cals = append(cals, calibrateAfter(setups[i])...)
		}
		if i < reps-1 {
			sess.close()
		}
	}
	defer sess.close()

	if traced {
		tr := newTracer()
		m := map[string]float64{}
		n := sess.traced(tr, d, m)
		res.Attempted += n
		for _, d := range perLayer {
			res.Stats[d.Name] = newStat(d, m[d.Name], nil)
		}
		if err := tr.write(e.outDir, w.name(), e.seed, m); err != nil {
			return nil, err
		}
	} else {
		m := sess.measure(d)
		res.Samples = m.Samples
		res.Attempted += len(m.Samples)
		// One speed factor for the run: the drift this corrects lasts
		// minutes, and single calibrations are jittery. Their jitter is
		// one-sided (a collection or a neighbour only ever slows the
		// loop), so the lower quartile of many is the steady estimate.
		res.Cals = append(cals, m.Cals...)
		q1, _, _ := quartiles(res.Cals)
		sp := calibrationRef / q1
		res.Raw = map[string]float64{"speed_factor": sp, "calibrations": float64(len(res.Cals)),
			"calibration_s": q1, "setup_wall_s": median(setups)}
		var walls, states, trans, rates []float64
		var sumStates int64
		for _, s := range m.Samples {
			if s.Err != "" {
				e.failf("%s: %s", w.name(), s.Err)
			}
			walls = append(walls, s.Wall*sp)
			states = append(states, float64(s.States))
			trans = append(trans, float64(s.Transitions))
			rates = append(rates, float64(s.States)/(s.Wall*sp))
			sumStates += s.States
		}
		for i := range setups {
			setups[i] *= sp
		}
		res.Raw["verdict_wall_s"] = median(walls) / sp
		set := func(name string, v float64, series []float64) {
			res.Stats[name] = newStat(endToEndByName[name], v, series)
		}
		set("setup_s", median(setups), setups)
		set("verdict_s", median(walls), walls)
		if m.Concurrent {
			rates = nil
		}
		set("states_per_s", float64(sumStates)/(m.Wall*sp), rates)
		set("verdicts_per_s", float64(len(m.Samples))/(m.Wall*sp), nil)
		set("states_explored", median(states), states)
		set("transitions_to_verdict", median(trans), trans)
		set("allocs_per_state", float64(m.Mallocs)/float64(sumStates), nil)
		set("peak_rss_mb", median(m.PeakRSSMB), m.PeakRSSMB)
	}
	res.Failures = e.failures
	res.Failed = len(e.failures)
	res.Correct = res.Failed == 0
	return res, nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(r *runResult, defs []metricDef) {
	fmt.Printf("workload %s seed %d traced %v\n", r.Workload, r.Seed, r.Traced)
	for _, d := range defs {
		st := r.Stats[d.Name]
		line := fmt.Sprintf("  %-40s %16.6g %-6s", d.Name, st.Value, d.Unit)
		if st.N >= 2 {
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n %d", st.Q1, st.Q3, st.N)
		}
		if st.TailP > 0 {
			line += fmt.Sprintf(" p%d %.6g", st.TailP, st.Tail)
		}
		if st.Unresolved {
			line += " unresolved"
		}
		fmt.Println(line)
	}
	if r.Raw != nil {
		fmt.Printf("  times are calibrated seconds: speed factor %.3f from %.0f calibrations (wall clock: verdict %.6g s, set-up %.6g s)\n",
			r.Raw["speed_factor"], r.Raw["calibrations"], r.Raw["verdict_wall_s"], r.Raw["setup_wall_s"])
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"commit":     commit,
	}
}

// fullResult is result.json: every workload's untraced and traced run.
type fullResult struct {
	Seed     int64                 `json:"seed"`
	Seconds  int                   `json:"seconds"`
	Env      map[string]string     `json:"env"`
	Untraced map[string]*runResult `json:"untraced"`
	Traced   map[string]*runResult `json:"traced"`
}

// runAll runs every workload in a child process of its own, untraced
// then traced, so one workload's heap and set-up never show in the
// next one's peak_rss_mb and setup_s.
func runAll(seed int64, seconds int, outDir string, smoke bool) (*fullResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	full := &fullResult{Seed: seed, Seconds: seconds, Env: environment(),
		Untraced: map[string]*runResult{}, Traced: map[string]*runResult{}}
	for _, traced := range []int{0, 1} {
		for _, w := range workloads {
			args := []string{"-workload", w.name(), "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", outDir}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			runErr := cmd.Run()
			// The child's table goes through; its last line is the
			// contract object, which result.json already holds.
			lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			r, err := readRun(runFile(outDir, w.name(), traced == 1))
			if err != nil {
				return nil, fmt.Errorf("%s: %v (child: %v)", w.name(), err, runErr)
			}
			if traced == 1 {
				full.Traced[w.name()] = r
			} else {
				full.Untraced[w.name()] = r
			}
		}
	}
	return full, nil
}

func runFile(outDir, workload string, traced bool) string {
	kind := "run"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, kind+"-"+workload+".json")
}

func readRun(path string) (*runResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload (default: all, each in a child process)")
		seed         = flag.Int64("seed", 1, "workload seed: shuffles cell and job order, generates microbenchmark inputs")
		seconds      = flag.Int("seconds", 10, "how long one run measures")
		trace        = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the untraced run (end-to-end metrics)")
		outDir       = flag.String("out", ".bench_build/out", "directory for run files, traces and result.json")
		smoke        = flag.Bool("smoke", false, "reduced scale, for tests")
		compare      = flag.Bool("compare", false, "compare two result.json files: -compare A.json B.json")
		pin          = flag.Bool("pin", false, "print the observed verdicts as an expected.json document instead of checking them")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare A.json B.json")
		}
		if !compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
	case *pin:
		if err := printPins(); err != nil {
			fatal("%v", err)
		}
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fatal("unknown workload %q (known: %s)", *workloadName, strings.Join(workloadNames(), ", "))
		}
		pins, err := loadPins()
		if err != nil {
			fatal("%v", err)
		}
		e := &env{workload: w.name(), seed: *seed, smoke: *smoke, outDir: *outDir, pins: pins}
		res, err := runWorkload(w, e, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fatal("%v", err)
		}
		res.Env = environment()
		if err := writeJSON(runFile(*outDir, w.name(), *trace == 1), res); err != nil {
			fatal("%v", err)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		printRun(res, defs)
		fmt.Println(res.contractLine(defs))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		full, err := runAll(*seed, *seconds, *outDir, *smoke)
		if err != nil {
			fatal("%v", err)
		}
		path := filepath.Join(*outDir, "result.json")
		if err := writeJSON(path, full); err != nil {
			fatal("%v", err)
		}
		failed := 0
		for _, r := range full.Untraced {
			failed += r.Failed
		}
		for _, r := range full.Traced {
			failed += r.Failed
		}
		fmt.Printf("wrote %s (%s, nproc %s, GOMAXPROCS %s, commit %s); %d failed ops\n", path,
			full.Env["go"], full.Env["nproc"], full.Env["gomaxprocs"], full.Env["commit"], failed)
		if failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
