package scenarios

import (
	"strings"
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	all := All()
	if len(all) < 16 { // 3 ping workloads + 11 bugs + 2 bench
		t.Fatalf("registry holds %d scenarios, want >= 16", len(all))
	}
	bugs := []string{"bug-i", "bug-ii", "bug-iii", "bug-iv", "bug-v", "bug-vi",
		"bug-vii", "bug-viii", "bug-ix", "bug-x", "bug-xi"}
	t2 := Table2()
	if len(t2) != len(bugs) {
		t.Fatalf("Table2() returned %d scenarios, want %d", len(t2), len(bugs))
	}
	for i, sc := range t2 {
		if sc.Name != bugs[i] {
			t.Errorf("Table2()[%d] = %s, want %s", i, sc.Name, bugs[i])
		}
		if sc.ExpectedProperty == "" {
			t.Errorf("%s: missing ExpectedProperty", sc.Name)
		}
		if !sc.HasFixed() {
			t.Errorf("%s: missing repaired variant", sc.Name)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"bug-ii", "BUG-II", "Bug-II", "pingpong", "PYSWITCH-BENCH"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Errorf("Lookup(%q) missed", name)
			continue
		}
		if !strings.EqualFold(sc.Name, name) {
			t.Errorf("Lookup(%q) resolved to %q", name, sc.Name)
		}
		if cfg := sc.Config(0); cfg == nil || cfg.Topo == nil || cfg.App == nil {
			t.Errorf("%s: Config(0) incomplete", sc.Name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup invented a scenario")
	}
}

func TestRegistryScale(t *testing.T) {
	sc := MustLookup("pingpong")
	if sc.ScaleName != "pings" || sc.DefaultScale != 2 {
		t.Fatalf("pingpong scale knob = %s/%d", sc.ScaleName, sc.DefaultScale)
	}
	three := sc.Config(3)
	if got := three.Hosts[0].SendBudget; got != 3 {
		t.Errorf("pingpong at scale 3 has send budget %d", got)
	}
	// Apply is a no-op for the PKT-SEQ column.
	cfg := sc.Config(0)
	if out := sc.Apply(cfg, PktSeqOnly); out != cfg || out.NoDelay || out.Unusual || out.FlowGroupKey != nil {
		t.Error("Apply(PktSeqOnly) mutated the config")
	}
	if out := sc.Apply(sc.Config(0), NoDelay); !out.NoDelay {
		t.Error("Apply(NoDelay) did not set the strategy")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate RegisterSpec did not panic")
		}
	}()
	sp := MustLookup("pingpong").spec
	sp.Name = "PingPong"
	RegisterSpec(sp)
}
