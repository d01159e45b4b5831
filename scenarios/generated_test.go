package scenarios

import (
	"context"
	"fmt"
	"testing"

	"github.com/nice-go/nice/apps/pyswitch"
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// generatedNames are the generator-backed registry entries this file
// covers, with their expected-violation wiring.
var generatedNames = []string{"pyswitch-fattree", "loadbalancer-star", "pyswitch-linearhosts"}

// TestGeneratedScenariosRegistered: the registry lists the paper
// built-ins plus the generator-backed entries (≥ 19 total), each with
// an expected violation, a repaired variant and a scale knob.
func TestGeneratedScenariosRegistered(t *testing.T) {
	if n := len(All()); n < 19 {
		t.Fatalf("registry holds %d scenarios, want >= 19", n)
	}
	for _, name := range generatedNames {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if sc.ExpectedProperty == "" {
			t.Errorf("%s: no expected violation wired", name)
		}
		if !sc.HasFixed() {
			t.Errorf("%s: no repaired variant", name)
		}
		if sc.ScaleName == "" || sc.DefaultScale == 0 {
			t.Errorf("%s: no scale knob (%q/%d)", name, sc.ScaleName, sc.DefaultScale)
		}
	}
}

// TestGeneratedScenariosViolateExpected: a full search on each
// generator-backed scenario finds exactly the registered expected
// property — the expected-violation matrix holds beyond the fixed
// paper topologies.
func TestGeneratedScenariosViolateExpected(t *testing.T) {
	for _, name := range generatedNames {
		sc := MustLookup(name)
		report := dfs(sc.Config(0))
		v := report.FirstViolation()
		if v == nil {
			t.Errorf("%s: no violation found (%d states)", name, report.UniqueStates)
			continue
		}
		if v.Property != sc.ExpectedProperty {
			t.Errorf("%s: violated %s, registry expects %s", name, v.Property, sc.ExpectedProperty)
		}
		if len(v.Trace) == 0 {
			t.Errorf("%s: violation carries no trace", name)
		}
	}
}

// TestGeneratedScenariosFixedClean: the repaired applications stay
// clean on the generated topologies. The fat-tree search space is huge
// (the repaired switch still floods unknown destinations), so that
// scenario is checked under a state budget via the engine API.
func TestGeneratedScenariosFixedClean(t *testing.T) {
	for _, name := range []string{"loadbalancer-star", "pyswitch-linearhosts"} {
		sc := MustLookup(name)
		report := dfs(sc.FixedConfig(0))
		if v := report.FirstViolation(); v != nil {
			t.Errorf("%s fixed: violates %s: %v", name, v.Property, v.Err)
		}
		if !report.Complete {
			t.Errorf("%s fixed: search did not complete", name)
		}
	}

	sc := MustLookup("pyswitch-fattree")
	report := search.DFS().Search(context.Background(), sc.FixedConfig(0),
		core.EngineOptions{MaxStates: 20000})
	if v := report.FirstViolation(); v != nil {
		t.Errorf("pyswitch-fattree fixed: violates %s within budget: %v", v.Property, v.Err)
	}
}

// TestGeneratedScenariosScaleKnob: the scale parameter reaches the
// topology generators.
func TestGeneratedScenariosScaleKnob(t *testing.T) {
	lin := MustLookup("pyswitch-linearhosts")
	if got := len(lin.Config(4).Topo.Hosts()); got != 8 {
		t.Errorf("pyswitch-linearhosts(4): %d hosts, want 8", got)
	}
	ft := MustLookup("pyswitch-fattree")
	if got := len(ft.Config(2).Topo.Switches()); got != 5 {
		t.Errorf("pyswitch-fattree(2): %d switches, want 5", got)
	}
	// Invalid arities fail loudly instead of silently running a
	// different scale than the one the label would report (cmd/nice
	// and Campaign convert the panic into a clean job error).
	func() {
		defer func() {
			if recover() == nil {
				t.Error("pyswitch-fattree(3): odd arity did not panic")
			}
		}()
		ft.Config(3)
	}()
	lb := MustLookup("loadbalancer-star")
	if got := len(lb.Config(6).Topo.Hosts()); got != 7 {
		t.Errorf("loadbalancer-star(6): %d hosts, want 7 (client + 6 replicas)", got)
	}
}

// TestGeneratedStrategize: Scenario.Apply wires every strategy column
// on every registered scenario — NO-DELAY and UNUSUAL set their flags,
// FLOW-IR installs the row's grouping wherever it declares one, and
// PKT-SEQ leaves the config as built.
func TestGeneratedStrategize(t *testing.T) {
	for _, sc := range All() {
		if cfg := sc.Apply(sc.Config(0), NoDelay); !cfg.NoDelay {
			t.Errorf("%s: NoDelay column did not set Config.NoDelay", sc.Name)
		}
		if cfg := sc.Apply(sc.Config(0), Unusual); !cfg.Unusual {
			t.Errorf("%s: Unusual column did not set Config.Unusual", sc.Name)
		}
		if cfg := sc.Apply(sc.Config(0), FlowIR); sc.spec.FlowGroup != nil && cfg.FlowGroupKey == nil {
			t.Errorf("%s: FlowIR column did not set Config.FlowGroupKey", sc.Name)
		}
		cfg := sc.Config(0)
		if out := sc.Apply(cfg, PktSeqOnly); out != cfg || out.NoDelay || out.Unusual ||
			out.FlowGroupKey != nil || out.EnvGroupKey != nil {
			t.Errorf("%s: PktSeqOnly mutated the config", sc.Name)
		}
	}
}

// TestSpecHostResolutionPanics: a Spec naming a host missing from its
// topology fails loudly when its config is built.
func TestSpecHostResolutionPanics(t *testing.T) {
	sp := Spec{
		Name:     "broken",
		Topology: func(int) *topo.Topology { t, _ := topo.Star(2); return t },
		NewApp:   func(t *topo.Topology) controller.App { return pyswitch.New(pyswitch.Buggy, t) },
		Hosts:    []HostSpec{{Name: "nonexistent", Sends: 1, SendToLast: true}},
	}
	defer func() {
		if recover() == nil {
			t.Error("Config with unknown host name did not panic")
		}
	}()
	sp.Scenario().Config(0)
}

// TestGeneratedTopologyFingerprintStability: two construction orders of
// the same logical topology produce systems with identical 128-bit
// fingerprints — the generators do not leak map-iteration or
// declaration order into state identity. One side is the Mesh(3)
// generator; the other hand-builds the identical wiring with switches,
// links and (same-ID) hosts declared in a different order.
func TestGeneratedTopologyFingerprintStability(t *testing.T) {
	tA, _ := topo.Mesh(3)

	tB := topo.New()
	tB.AddSwitch(3, 3)
	tB.AddSwitch(1, 3)
	tB.AddSwitch(2, 3)
	tB.AddLink(topo.PortKey{Sw: 2, Port: 2}, topo.PortKey{Sw: 3, Port: 2})
	tB.AddLink(topo.PortKey{Sw: 1, Port: 2}, topo.PortKey{Sw: 3, Port: 1})
	tB.AddLink(topo.PortKey{Sw: 1, Port: 1}, topo.PortKey{Sw: 2, Port: 1})
	// Hosts must keep their IDs (identity is part of system state), so
	// they are declared in ID order on both sides.
	for i := 1; i <= 3; i++ {
		tB.AddHost(fmt.Sprintf("h%d", i), topo.AutoEthAddr(i), topo.AutoIPAddr(i),
			topo.PortKey{Sw: openflow.SwitchID(i), Port: 3})
	}
	tB.MustValidate()

	cfg := func(tp *topo.Topology) *core.Config {
		h1 := tp.Host(1)
		h3 := tp.Host(3)
		return &core.Config{
			Topo:      tp,
			App:       pyswitch.New(pyswitch.Buggy, tp),
			Hosts:     []*hosts.Host{hosts.NewClient(h1, 1, 0, PingBetween(h1, h3))},
			DisableSE: true,
		}
	}
	fpA := core.NewSystem(cfg(tA)).Fingerprint()
	fpB := core.NewSystem(cfg(tB)).Fingerprint()
	if fpA != fpB {
		t.Errorf("fingerprints differ across construction orders: %x vs %x", fpA, fpB)
	}

	// And the generator itself is deterministic run to run.
	tC, _ := topo.Mesh(3)
	if fpC := core.NewSystem(cfg(tC)).Fingerprint(); fpC != fpA {
		t.Errorf("generator not deterministic: %x vs %x", fpC, fpA)
	}
}
