package service

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/scenarios"
)

// JobRequest is one search, stated once for every door: the body of
// POST /v1/jobs, the request a trace artifact records, the `nice` flags
// (Flags) and nice.RunRequest's argument. Exactly one of Scenario and
// Spec names what to check; every other field is an optional search
// knob whose zero value is the default. Resolve turns it into what runs.
type JobRequest struct {
	// Scenario names a registry entry (GET /v1/scenarios lists them);
	// Spec is an inline declarative scenario.
	Scenario string              `json:"scenario,omitempty"`
	Spec     *scenarios.WireSpec `json:"spec,omitempty"`

	// Scale is the scenario's scale knob (0 = default); Strategy the
	// Table 2 column ("" = pkt-seq); Fixed selects the repaired app.
	Scale    int    `json:"scale,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Fixed    bool   `json:"fixed,omitempty"`

	// Engine names an engine of search.Engines; "" lets the other knobs
	// imply one (search.Job.InferEngine). Workers sizes its pool, at most
	// MaxWorkers (0 = a server's DefaultJobWorkers, then the engine's
	// own default, or one worker when no engine is named).
	Engine  string `json:"engine,omitempty"`
	Workers int    `json:"workers,omitempty"`
	// MaxStates / MaxTransitions / TimeoutMS bound the search; a server
	// clamps them to its per-job limits and the tenant's drawdown.
	MaxStates      int64 `json:"max_states,omitempty"`
	MaxTransitions int64 `json:"max_transitions,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`

	// MaxDepth overrides the execution depth bound (0 = keep it);
	// AllViolations searches past the first violation; Reduction names
	// an interleaving reduction ("" = none).
	MaxDepth      int    `json:"max_depth,omitempty"`
	AllViolations bool   `json:"all_violations,omitempty"`
	Reduction     string `json:"reduction,omitempty"`
	// SymBudget / SymWorkers bound and size the concolic loop's solver
	// side; Seed / Walks / Steps drive the random-walk engines, and
	// Walks or Steps (not Seed alone) select one when none is named.
	SymBudget  int64 `json:"sym_budget,omitempty"`
	SymWorkers int   `json:"sym_workers,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	Walks      int   `json:"walks,omitempty"`
	Steps      int   `json:"steps,omitempty"`
}

// MaxWorkers bounds a request's worker pools (workers, sym_workers):
// each worker is a goroutine with its own expansion buffers, so an
// unbounded ask would end the whole server in an out-of-memory crash.
const MaxWorkers = 1024

// maxTimeoutMS is the largest timeout_ms a time.Duration holds. A
// larger one would overflow to a negative Timeout, which means no
// deadline at all.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// Flags registers one flag per field on fs, named by its JSON name
// with "-" for "_" and defaulting to the field's current value. -spec
// reads a WireSpec JSON file ("-" = stdin).
func (r *JobRequest) Flags(fs *flag.FlagSet) {
	fs.StringVar(&r.Scenario, "scenario", r.Scenario, "registry scenario to check (see -list)")
	fs.Func("spec", "inline declarative scenario: a WireSpec JSON `file` (- = stdin)", func(path string) (err error) {
		f := os.Stdin
		if path != "-" {
			if f, err = os.Open(path); err != nil {
				return err
			}
			defer f.Close()
		}
		r.Spec, err = scenarios.DecodeWireSpec(f)
		return err
	})
	fs.IntVar(&r.Scale, "scale", r.Scale, "the scenario's scale knob (see -list; 0 = scenario default)")
	fs.StringVar(&r.Strategy, "strategy", r.Strategy, "search strategy: "+strings.Join(scenarios.StrategyNames(), ", ")+" (default pkt-seq)")
	fs.BoolVar(&r.Fixed, "fixed", r.Fixed, "check the repaired application instead")
	fs.StringVar(&r.Engine, "engine", r.Engine, "search engine: "+engineNames+" (default inferred from the other flags)")
	fs.IntVar(&r.Workers, "workers", r.Workers, fmt.Sprintf("engine worker pool, at most %d (0 = default: the named engine's own, else 1)", MaxWorkers))
	fs.Int64Var(&r.MaxStates, "max-states", r.MaxStates, "abort the search after this many unique states")
	fs.Int64Var(&r.MaxTransitions, "max-transitions", r.MaxTransitions, "abort the search after this many transitions")
	fs.Int64Var(&r.TimeoutMS, "timeout-ms", r.TimeoutMS, "abort the search after this many milliseconds")
	fs.IntVar(&r.MaxDepth, "max-depth", r.MaxDepth, "override the execution depth bound")
	fs.BoolVar(&r.AllViolations, "all-violations", r.AllViolations, "keep searching past the first violation")
	fs.StringVar(&r.Reduction, "reduction", r.Reduction, "interleaving reduction: "+reductionNames+" (dfs only: with no -engine it selects dfs, with another engine it is an error)")
	fs.Int64Var(&r.SymBudget, "sym-budget", r.SymBudget, "concolic loop: abort after this many symbolic discover explorations of its own")
	fs.IntVar(&r.SymWorkers, "sym-workers", r.SymWorkers, "concolic loop: solver worker pool size (0 = 2)")
	fs.Int64Var(&r.Seed, "seed", r.Seed, "random-walk seed (walk i uses seed+i); read only by a walk engine, which -walks/-steps or -engine select")
	fs.IntVar(&r.Walks, "walks", r.Walks, "number of random walks (0 = 64)")
	fs.IntVar(&r.Steps, "steps", r.Steps, "max transitions per walk (0 = 100)")
}

// Validate checks the request's shape; Resolve looks the scenario up.
// Every error is a *scenarios.FieldError naming the offending JSON
// field, a spec's rooted at "spec".
func (r *JobRequest) Validate() error {
	if (r.Scenario == "") == (r.Spec == nil) {
		return fieldErr("scenario", "exactly one of scenario and spec required")
	}
	if r.Spec != nil {
		if err := r.Spec.Validate(); err != nil {
			return underSpec(err)
		}
	}
	if _, ok := scenarios.ParseStrategy(r.Strategy); !ok {
		return fieldErr("strategy", "unknown strategy %q (known: %s)", r.Strategy, strings.Join(scenarios.StrategyNames(), ", "))
	}
	if _, ok := search.Lookup(r.Engine); r.Engine != "" && !ok {
		return fieldErr("engine", "unknown engine %q (known: %s)", r.Engine, engineNames)
	}
	if _, ok := core.ParseReduction(r.Reduction); !ok {
		return fieldErr("reduction", "unknown reduction %q (known: %s)", r.Reduction, reductionNames)
	}
	const none = math.MaxInt64
	for _, b := range []struct {
		field  string
		v, max int64
	}{
		{"scale", int64(r.Scale), none}, {"workers", int64(r.Workers), MaxWorkers},
		{"max_states", r.MaxStates, none}, {"max_transitions", r.MaxTransitions, none},
		{"timeout_ms", r.TimeoutMS, maxTimeoutMS}, {"max_depth", int64(r.MaxDepth), none},
		{"sym_budget", r.SymBudget, none}, {"sym_workers", int64(r.SymWorkers), MaxWorkers},
		{"walks", int64(r.Walks), none}, {"steps", int64(r.Steps), none},
	} {
		if b.v < 0 {
			return fieldErr(b.field, "negative value %d", b.v)
		}
		if b.v > b.max {
			return fieldErr(b.field, "%d exceeds the limit of %d", b.v, b.max)
		}
	}
	return nil
}

// Resolve is the one step from a request to a search: it validates the
// request, looks the scenario up (or compiles the spec), builds the
// configuration at the asked-for scale, strategy and variant, and fills
// a search.Job with every knob and the engine they imply. A reduction
// the engine would ignore is an error: DPOR runs on the dfs engine only.
// Every door that adds no knob of its own runs the same search for the
// same request.
func (r *JobRequest) Resolve() (*core.Config, search.Job, error) {
	if err := r.Validate(); err != nil {
		return nil, search.Job{}, err
	}
	sc, ok := scenarios.Lookup(r.Scenario)
	if r.Spec != nil {
		sp, err := r.Spec.Compile()
		if err != nil {
			return nil, search.Job{}, underSpec(err)
		}
		sc, ok = sp.Scenario(), true
	}
	switch {
	case !ok:
		return nil, search.Job{}, fieldErr("scenario", "unknown scenario %q", r.Scenario)
	case r.Scale > 0 && sc.Scale(r.Scale) == 0: // a scale that would never apply
		return nil, search.Job{}, fieldErr("scale", "scenario %q has no scale knob", sc.Name)
	}
	cfg, _, err := sc.Resolve(r.Scale, r.Strategy, r.Fixed)
	if err != nil {
		return nil, search.Job{}, err
	}
	if r.MaxDepth > 0 {
		cfg.MaxDepth = r.MaxDepth
	}
	cfg.StopAtFirstViolation = cfg.StopAtFirstViolation && !r.AllViolations

	job := search.Job{Timeout: time.Duration(r.TimeoutMS) * time.Millisecond, EngineOptions: core.EngineOptions{
		Workers: r.Workers, MaxStates: r.MaxStates, MaxTransitions: r.MaxTransitions,
		SymBudget: r.SymBudget, SymWorkers: r.SymWorkers, Seed: r.Seed, Walks: r.Walks, Steps: r.Steps,
	}}
	job.Reduction, _ = core.ParseReduction(r.Reduction)
	if spec, ok := search.Lookup(r.Engine); ok {
		job.Engine = spec.New()
	}
	job.InferEngine(r.Workers > 0, r.Walks > 0 || r.Steps > 0, r.SymBudget > 0 || r.SymWorkers > 0)
	if name := job.Engine.Name(); job.Reduction == core.ReductionDPOR && name != "dfs" {
		return nil, search.Job{}, fieldErr("reduction", "%q runs on engine dfs only, not %s", r.Reduction, name)
	}
	return cfg, job, nil
}

// DecodeJobRequest parses a submission body, rejecting unknown fields
// and anything but white space after the request object; Resolve
// (which Server.Submit calls) validates the rest.
func DecodeJobRequest(r io.Reader) (*JobRequest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var req JobRequest
	err := dec.Decode(&req)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == nil {
			err = errors.New("a second JSON value follows the request object")
		} else if err == io.EOF {
			return &req, nil
		}
	}
	return nil, fmt.Errorf("request: %w", err)
}

func fieldErr(field, format string, args ...any) *scenarios.FieldError {
	return &scenarios.FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// underSpec roots a spec's field errors (one, or several joined) at
// "spec".
func underSpec(err error) error {
	errs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		errs = joined.Unwrap()
	}
	rooted := make([]error, len(errs))
	for i, e := range errs {
		rooted[i] = fieldErr("spec", "%v", e)
		if fe := (*scenarios.FieldError)(nil); errors.As(e, &fe) {
			rooted[i] = fieldErr("spec."+fe.Field, "%s", fe.Msg)
		}
	}
	return errors.Join(rooted...)
}

// engineNames and reductionNames list what engine and reduction accept,
// in table order, for usage text and errors.
var (
	engineNames    = names(search.Engines(), func(e search.EngineSpec) string { return e.Name })
	reductionNames = names(core.ReductionSpecs(), func(r core.ReductionSpec) string { return r.Name })
)

func names[S any](specs []S, name func(S) string) string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = name(s)
	}
	return strings.Join(out, ", ")
}
