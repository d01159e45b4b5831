package scenarios

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// Scenario is one named, registered checking workload: the topology,
// application, hosts and properties behind a paper experiment or a
// benchmark, plus the expectations the test suites assert. The CLI
// (cmd/nice) with its experiment harness (nice experiments), the
// benchmark (benchmark/), the tests and the examples all resolve
// workloads here, so a new topology or workload registers in exactly
// one place.
type Scenario struct {
	// Name is the canonical lookup key ("bug-ii", "pingpong", ...);
	// lookups are case-insensitive.
	Name string
	// Summary is the one-line -list description.
	Summary string
	// App names the controller application under test.
	App string
	// Bug is nonzero for the eleven Table 2 bug scenarios.
	Bug Bug
	// ExpectedProperty names the property a full search violates
	// ("" when the scenario is expected clean).
	ExpectedProperty string
	// Misses marks the Table 2 strategy columns expected to miss the
	// bug (the paper's blank cells plus the documented deviations).
	Misses map[Strategy]bool
	// ScaleName names the scale knob ("pings", "sends"); "" when the
	// scenario has no scale parameter.
	ScaleName string
	// DefaultScale is the scale used when one <= 0 is asked for (Scale).
	DefaultScale int
	// MaxScale is the largest scale Resolve builds (0 = no limit): where
	// the scale sizes a generated topology, the one with MaxHosts hosts.
	MaxScale int
	// Build constructs the checking configuration at a given scale
	// (ignored when ScaleName is empty).
	Build func(scale int) *core.Config
	// BuildFixed constructs the repaired-application variant
	// (nil when the scenario has none).
	BuildFixed func(scale int) *core.Config
	// Strategize applies one of the Table 2 strategy columns with the
	// scenario-appropriate FLOW-IR grouping (nil = strategies are not
	// applicable; PktSeqOnly is always a no-op).
	Strategize func(cfg *core.Config, s Strategy) *core.Config
}

// Scale is the scale the scenario runs at when asked for scale: the
// asked-for one, DefaultScale when scale <= 0, and 0 when the scenario
// has no knob (its Build hooks ignore the argument).
func (s Scenario) Scale(scale int) int {
	switch {
	case s.ScaleName == "":
		return 0
	case scale <= 0:
		return s.DefaultScale
	}
	return scale
}

// Config builds the scenario's checking configuration at Scale(scale).
func (s Scenario) Config(scale int) *core.Config {
	return s.Build(s.Scale(scale))
}

// FixedConfig builds the repaired-application variant, or nil.
func (s Scenario) FixedConfig(scale int) *core.Config {
	if s.BuildFixed == nil {
		return nil
	}
	return s.BuildFixed(s.Scale(scale))
}

// Apply applies a Table 2 strategy column to a config built by this
// scenario (no-op for PktSeqOnly or when the scenario has no
// Strategize hook).
func (s Scenario) Apply(cfg *core.Config, strat Strategy) *core.Config {
	if s.Strategize == nil || strat == PktSeqOnly {
		return cfg
	}
	return s.Strategize(cfg, strat)
}

// Resolve builds the configuration every front end runs — the CLI, a
// Campaign job, a service job: the buggy or repaired application at a
// scale (<= 0 = DefaultScale) under one Table 2 strategy column, named
// as ParseStrategy spells it. A scale above MaxScale is a *FieldError
// naming "scale", returned before anything is built. Build hooks fail
// loudly on an invalid scale (an odd fat-tree arity, say); that panic
// is an error here, not a dead caller.
func (s Scenario) Resolve(scale int, strategy string, fixed bool) (cfg *core.Config, strat Strategy, err error) {
	defer func() {
		if r := recover(); r != nil {
			cfg, err = nil, fmt.Errorf("scenario %q: %v", s.Name, r)
		}
	}()
	strat, ok := ParseStrategy(strategy)
	if !ok {
		return nil, strat, fmt.Errorf("unknown strategy %q", strategy)
	}
	if s.MaxScale > 0 && s.Scale(scale) > s.MaxScale {
		return nil, strat, fieldErr("scale", "%d exceeds scenario %q's limit of %d", s.Scale(scale), s.Name, s.MaxScale)
	}
	if fixed {
		if cfg = s.FixedConfig(scale); cfg == nil {
			return nil, strat, fmt.Errorf("scenario %q has no repaired variant", s.Name)
		}
	} else {
		cfg = s.Config(scale)
	}
	return s.Apply(cfg, strat), strat, nil
}

// registry is the process-wide scenario table. Built-ins register from
// init below; external packages may Register their own workloads
// (topologies, apps, properties) and every front end picks them up.
var registry struct {
	mu    sync.RWMutex
	order []string
	byKey map[string]Scenario
}

// Register adds a scenario under its Name. It panics on an empty or
// duplicate name or a nil Build hook — registration is init-time
// wiring, and a bad entry should fail loudly.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenarios: Register with empty Name")
	}
	if s.Build == nil {
		panic("scenarios: Register " + s.Name + " with nil Build")
	}
	key := strings.ToLower(s.Name)
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byKey == nil {
		registry.byKey = make(map[string]Scenario)
	}
	if _, dup := registry.byKey[key]; dup {
		panic("scenarios: duplicate scenario " + s.Name)
	}
	registry.byKey[key] = s
	registry.order = append(registry.order, key)
}

// Lookup resolves a scenario by name, case-insensitively.
func Lookup(name string) (Scenario, bool) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	s, ok := registry.byKey[strings.ToLower(name)]
	return s, ok
}

// MustLookup resolves a registered scenario or panics — for wiring
// that depends on the built-ins (benchmarks, experiments).
func MustLookup(name string) Scenario {
	s, ok := Lookup(name)
	if !ok {
		panic("scenarios: unknown scenario " + name)
	}
	return s
}

// All returns every registered scenario in registration order (the
// built-ins: ping workloads first, then the Table 2 bugs, then the
// bench workloads).
func All() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.order))
	for _, key := range registry.order {
		out = append(out, registry.byKey[key])
	}
	return out
}

// Table2 returns the eleven bug scenarios in Table 2 order.
func Table2() []Scenario {
	out := make([]Scenario, 0, len(AllBugs))
	for _, s := range All() {
		if s.Bug != 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bug < out[j].Bug })
	return out
}

// table2Misses is the expected strategy miss-matrix. The paper's
// Table 2 reports NO-DELAY missing BUG-V, BUG-X and BUG-XI (race and
// perceived-load bugs) and FLOW-IR missing BUG-VII. Our NO-DELAY
// additionally misses BUG-IX: with every controller↔switch exchange
// atomic, a packet can never outrun a rule install (see EXPERIMENTS.md
// for the deviation discussion).
var table2Misses = map[Bug]map[Strategy]bool{
	BugV:   {NoDelay: true},
	BugVII: {FlowIR: true},
	BugIX:  {NoDelay: true},
	BugX:   {NoDelay: true},
	BugXI:  {NoDelay: true},
}

// appName labels the application a bug scenario exercises.
func appName(b Bug) string {
	switch {
	case b <= BugIII:
		return "pyswitch (MAC learning)"
	case b <= BugVII:
		return "load balancer"
	default:
		return "energy-efficient TE"
	}
}

// pingStrategize is the §7 ping workload's Table 2 strategy wiring:
// each ping exchange is one independent FLOW-IR group.
func pingStrategize(cfg *core.Config, s Strategy) *core.Config {
	switch s {
	case NoDelay:
		cfg.NoDelay = true
	case Unusual:
		cfg.Unusual = true
	case FlowIR:
		cfg.FlowGroupKey = PingGroup
	}
	return cfg
}

func init() {
	Register(Scenario{
		Name:         "pingpong",
		Summary:      "§7 layer-2 ping workload (Table 1, Figure 6); SE off",
		App:          "pyswitch (MAC learning)",
		ScaleName:    "pings",
		DefaultScale: 2,
		Build:        PingPong,
		Strategize:   pingStrategize,
	})
	Register(Scenario{
		Name:         "pingpong-se",
		Summary:      "ping workload with symbolic execution discovering the sends",
		App:          "pyswitch (MAC learning)",
		ScaleName:    "pings",
		DefaultScale: 2,
		Build:        PingPongSE,
		Strategize:   pingStrategize,
	})
	Register(Scenario{
		Name:         "baseline-fine",
		Summary:      "ping workload under an off-the-shelf-style fine-grained checker",
		App:          "pyswitch (MAC learning)",
		ScaleName:    "pings",
		DefaultScale: 2,
		Build:        BaselineFine,
	})
	for _, b := range AllBugs {
		b := b
		Register(Scenario{
			Name: strings.ToLower(b.String()),
			Summary: fmt.Sprintf("%s: %s violating %s (§8)",
				b, appName(b), b.ExpectedProperty()),
			App:              appName(b),
			Bug:              b,
			ExpectedProperty: b.ExpectedProperty(),
			Misses:           table2Misses[b],
			Build:            func(int) *core.Config { return BugConfig(b) },
			BuildFixed:       func(int) *core.Config { return FixedConfig(b) },
			Strategize: func(cfg *core.Config, s Strategy) *core.Config {
				return WithStrategy(cfg, b, s)
			},
		})
	}
	Register(Scenario{
		Name:             "pyswitch-bench",
		Summary:          "BUG-II scenario scaled for benchmarking (full search, no early stop)",
		App:              "pyswitch (MAC learning)",
		ExpectedProperty: BugII.ExpectedProperty(),
		ScaleName:        "sends",
		DefaultScale:     3,
		Build:            PyswitchBench,
		Strategize: func(cfg *core.Config, s Strategy) *core.Config {
			return WithStrategy(cfg, BugII, s)
		},
	})
	Register(Scenario{
		Name:             "loadbalancer-bench",
		Summary:          "BUG-IV scenario scaled for benchmarking (full search, no early stop)",
		App:              "load balancer",
		ExpectedProperty: BugIV.ExpectedProperty(),
		ScaleName:        "sends",
		DefaultScale:     4,
		Build:            LoadBalancerBench,
		Strategize: func(cfg *core.Config, s Strategy) *core.Config {
			return WithStrategy(cfg, BugIV, s)
		},
	})
	registerGenerated()
}
