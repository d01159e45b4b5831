package scenarios

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/apps/loadbalancer"
	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// Scenario is one named, registered checking workload: what a Spec
// compiles to (RegisterSpec) — the labels and expectations the front
// ends and test suites read, and the Spec that builds its
// configuration. The CLI (cmd/nice) with its experiment harness (nice
// experiments), the benchmark (benchmark/), the tests and the examples
// all resolve workloads here, so a new topology or workload registers
// in exactly one place.
type Scenario struct {
	// Name is the canonical lookup key ("bug-ii", "pingpong", ...);
	// lookups are case-insensitive.
	Name string
	// Summary is the one-line -list description.
	Summary string
	// App names the controller application under test.
	App string
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

	spec Spec
}

// Scale is the scale the scenario runs at when asked for scale: the
// asked-for one, DefaultScale when scale <= 0, and 0 when the scenario
// has no knob.
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
	return s.spec.build(s.spec.NewApp, s.Scale(scale))
}

// HasFixed reports whether the scenario has a repaired-application
// variant.
func (s Scenario) HasFixed() bool { return s.spec.NewFixedApp != nil }

// FixedConfig builds the repaired-application variant, or nil.
func (s Scenario) FixedConfig(scale int) *core.Config {
	if !s.HasFixed() {
		return nil
	}
	return s.spec.build(s.spec.NewFixedApp, s.Scale(scale))
}

// Apply applies a Table 2 strategy column to a config built by this
// scenario. It is the one strategy rule: NO-DELAY and UNUSUAL set their
// flags, FLOW-IR installs the scenario's FlowGroup/EnvGroup grouping,
// and PKT-SEQ leaves the config as built.
func (s Scenario) Apply(cfg *core.Config, strat Strategy) *core.Config {
	switch strat {
	case NoDelay:
		cfg.NoDelay = true
	case Unusual:
		cfg.Unusual = true
	case FlowIR:
		if s.spec.FlowGroup != nil {
			cfg.FlowGroupKey = s.spec.FlowGroup
		}
		if s.spec.EnvGroup != nil {
			cfg.EnvGroupKey = s.spec.EnvGroup
		}
	}
	return cfg
}

// Resolve builds the configuration every front end runs — the CLI, a
// Campaign job, a service job, the experiment harness: the buggy or
// repaired application at a scale (<= 0 = DefaultScale) under one
// Table 2 strategy column, named as ParseStrategy spells it. A scale
// above MaxScale is a *FieldError naming "scale", returned before
// anything is built. Builders fail loudly on an invalid scale (an odd
// fat-tree arity, say); that panic is an error here, not a dead caller.
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
// init below; external packages may RegisterSpec their own workloads
// (topologies, apps, properties) and every front end picks them up.
// table2 names the eleven bug rows in Table 2 order.
var registry struct {
	mu     sync.RWMutex
	order  []string
	byKey  map[string]Scenario
	table2 []string
}

// register adds a compiled scenario under its Name, panicking on an
// empty or duplicate name.
func register(s Scenario) {
	if s.Name == "" {
		panic("scenarios: RegisterSpec with empty Name")
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
// bench workloads, then the generated ones).
func All() []Scenario {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Scenario, 0, len(registry.order))
	for _, key := range registry.order {
		out = append(out, registry.byKey[key])
	}
	return out
}

// Table2 returns the eleven bug scenarios ("bug-i" … "bug-xi") in
// Table 2 order.
func Table2() []Scenario {
	out := make([]Scenario, len(registry.table2))
	for i, name := range registry.table2 {
		out[i] = MustLookup(name)
	}
	return out
}

// The application labels -list and the service's scenario table show.
const (
	pyswitchLabel = "pyswitch (MAC learning)"
	lbLabel       = "load balancer"
	teLabel       = "energy-efficient TE"
)

func init() {
	// The §7 ping workload (Table 1, Figure 6): the Figure 1 topology
	// A — s1 — s2 — B, the MAC-learning controller, and "host A sends a
	// 'layer-2 ping' packet to host B which replies with a packet to A",
	// with `pings` concurrent exchanges. Symbolic execution is off, as
	// in Table 1 ("Symbolic execution is turned off in both cases"): A's
	// repertoire holds the concrete pings (pingRepertoire).
	ping := Spec{
		Name:         "pingpong",
		Summary:      "§7 layer-2 ping workload (Table 1, Figure 6); SE off",
		App:          pyswitchLabel,
		ScaleName:    "pings",
		DefaultScale: 2,
		Topology:     func(int) *topo.Topology { t, _, _ := topo.Linear(2); return t },
		NewApp:       pyswitchApp(pyswitch.Buggy),
		Hosts: []HostSpec{
			{Name: "A", ScaleSends: true, SendTo: "B"},
			{Name: "B", Reply: hosts.EchoReply},
		},
		DisableSE: true,
		FlowGroup: pingGroup,
		Tune:      pingRepertoire,
	}
	RegisterSpec(ping)

	// The same workload with A's sends discovered by discover_packets.
	se := ping
	se.Name = "pingpong-se"
	se.Summary = "ping workload with symbolic execution discovering the sends"
	se.DisableSE = false
	RegisterSpec(se)

	// The ping workload checked the way an off-the-shelf model checker
	// would see the system: one packet per channel per transition
	// instead of the batched process_pkt, and raw, uncanonicalized
	// switch state. It stands in for the paper's SPIN/JPF comparison
	// (see "Deviations from the paper" in docs/ARCHITECTURE.md).
	fine := ping
	fine.Name = "baseline-fine"
	fine.Summary = "ping workload under an off-the-shelf-style fine-grained checker"
	fine.Tune = func(cfg *core.Config, pings int) {
		pingRepertoire(cfg, pings)
		cfg.MicroSteps = true
		cfg.NoSwitchReduction = true
	}
	RegisterSpec(fine)

	// The eleven bugs of §8. Each row runs the app at the fix level
	// that repairs every earlier bug of the same app (the paper found
	// each bug after fixing the previous one); its fixed variant is the
	// fully repaired app. The misses are the paper's Table 2 blanks —
	// NO-DELAY misses BUG-V, BUG-X and BUG-XI (race and perceived-load
	// bugs), FLOW-IR misses BUG-VII — plus our NO-DELAY's BUG-IX miss:
	// with every controller↔switch exchange atomic, a packet can never
	// outrun a rule install (see "Deviations from the paper" in
	// docs/ARCHITECTURE.md).
	bugII := pyswitchBug("bug-ii", topo.SingleSwitch, 2, hosts.EchoReply,
		"StrictDirectPaths", Prop(props.NewStrictDirectPaths))
	bugIV := lbBug("bug-iv", loadbalancer.Buggy, 1)
	bugVI := lbBug("bug-vi", loadbalancer.FixV, 0)
	bugVI.Domains = func(t *topo.Topology) core.DomainHints {
		d := lbDomains(t)
		d.EthTypes = append(d.EthTypes, openflow.EthTypeARP)
		return d
	}
	bugVII := lbBug("bug-vii", loadbalancer.FixVI, 1)
	bugVII.Hosts[0].Sends = 2
	bugVII.ExpectedProperty = "FlowAffinity"
	bugVII.Properties = []func(*topo.Topology) core.Property{flowAffinity}
	// The published BUG-VII needs a connection established before the
	// policy change; applying the reconfiguration atomically keeps
	// BUG-V-family update races (already fixed at this level) out of
	// the search.
	bugVII.AtomicEnv = true
	bugVII.Misses = map[Strategy]bool{FlowIR: true}
	bugX := teBug("bug-x", energyte.FixIX, 1, 1)
	bugX.ExpectedProperty = "UseCorrectRoutingTable"
	bugX.Properties = []func(*topo.Topology) core.Property{
		func(t *topo.Topology) core.Property { return props.NewUseCorrectRoutingTable(teSpec(t)) },
	}
	for _, sp := range []Spec{
		pyswitchBug("bug-i", topo.SingleSwitchMobile, 2, hosts.EchoReply,
			"NoBlackHoles", Prop(props.NewNoBlackHoles)),
		bugII,
		pyswitchBug("bug-iii", cycle3, 1, nil, "NoForwardingLoops", Prop(props.NewNoForwardingLoops)),
		bugIV,
		missesNoDelay(lbBug("bug-v", loadbalancer.FixIV, 1)),
		bugVI,
		bugVII,
		teBug("bug-viii", energyte.Buggy, 0, 1),
		missesNoDelay(teBug("bug-ix", energyte.FixVIII, 0, 1)),
		missesNoDelay(bugX),
		missesNoDelay(teBug("bug-xi", energyte.FixX, 2, 2)),
	} {
		sp.Summary = fmt.Sprintf("%s: %s violating %s (§8)",
			strings.ToUpper(sp.Name), sp.App, sp.ExpectedProperty)
		sp.StopAtFirstViolation = true
		RegisterSpec(sp)
		registry.table2 = append(registry.table2, sp.Name)
	}

	// BUG-II and BUG-IV scaled for benchmarking: the client's send
	// budget is the scale, and the whole state space is walked — the
	// workloads the benchmark's full-search runs and the parallel-engine
	// differential tests measure against. At their default scales the
	// full searches run ~10k and ~13k unique states.
	RegisterSpec(bench(bugII, "pyswitch-bench",
		"BUG-II scenario scaled for benchmarking (full search, no early stop)", 3))
	RegisterSpec(bench(bugIV, "loadbalancer-bench",
		"BUG-IV scenario scaled for benchmarking (full search, no early stop)", 4))

	registerGenerated()
}

// missesNoDelay marks a Table 2 row the NO-DELAY column misses.
func missesNoDelay(sp Spec) Spec {
	sp.Misses = map[Strategy]bool{NoDelay: true}
	return sp
}

// bench turns a Table 2 row into a benchmark workload: its first host's
// send budget becomes the scale knob, and the search no longer stops at
// the first violation.
func bench(sp Spec, name, summary string, sends int) Spec {
	sp.Name, sp.Summary = name, summary
	sp.ScaleName, sp.DefaultScale = "sends", sends
	sp.Hosts = slices.Clone(sp.Hosts)
	sp.Hosts[0].ScaleSends = true
	sp.StopAtFirstViolation = false
	sp.NewFixedApp, sp.Misses = nil, nil
	return sp
}
