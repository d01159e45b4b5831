package energyte_test

import (
	"context"
	"strings"
	"testing"

	"github.com/nice-go/nice/apps/energyte"
	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/core"
	_ "github.com/nice-go/nice/internal/search" // registers the default engine
	"github.com/nice-go/nice/scenarios"
)

// partition relates the keys the two renderings give each application
// state a search reaches: each must determine the other.
type partition struct {
	t        *testing.T
	toNew    map[string]string
	toOracle map[string]string
	calls    int
	pending  bool // some state had a parked packet
}

// spy is the application under search with StateKey observed; every
// other method, the optional interfaces included, is the embedded
// App's own.
type spy struct {
	*energyte.App
	p *partition
}

func (s spy) Clone() controller.App { return spy{s.App.Clone().(*energyte.App), s.p} }
func (s spy) Fork() controller.App  { return spy{s.App.Fork().(*energyte.App), s.p} }

func (s spy) StateKey() string {
	key, oracle := s.App.StateKey(), s.App.OracleStateKey()
	if prev, ok := s.p.toNew[oracle]; ok && prev != key {
		s.p.t.Errorf("one oracle key, two keys:\n%s\n%s\n%s", oracle, prev, key)
	}
	if prev, ok := s.p.toOracle[key]; ok && prev != oracle {
		s.p.t.Errorf("one key, two oracle keys:\n%s\n%s\n%s", key, prev, oracle)
	}
	s.p.toNew[oracle], s.p.toOracle[key] = key, oracle
	s.p.calls++
	s.p.pending = s.p.pending || !strings.HasSuffix(key, "pend[]")
	return key
}

// TestStateKeyPartition holds the append encoder to the equalities of
// the fmt + canon.String rendering it replaced: over every application
// state the full search of bug-viii … bug-xi reaches under each of the
// four strategies — and of bug-ix's barrier remedy, the one variant
// that parks packets in pending — two states have equal keys iff they
// had equal oracle keys.
func TestStateKeyPartition(t *testing.T) {
	p := &partition{t: t, toNew: map[string]string{}, toOracle: map[string]string{}}
	for _, name := range []string{"bug-viii", "bug-ix", "bug-x", "bug-xi", "bug-ix+barriers"} {
		sc, ok := scenarios.Lookup(strings.TrimSuffix(name, "+barriers"))
		if !ok {
			t.Fatalf("no scenario %s", name)
		}
		for _, strategy := range []string{"pkt-seq", "no-delay", "flow-ir", "unusual"} {
			cfg, _, err := sc.Resolve(0, strategy, false)
			if err != nil {
				t.Fatal(err)
			}
			app := cfg.App.(*energyte.App)
			if strings.HasSuffix(name, "+barriers") {
				app = energyte.New(energyte.FixVIII, cfg.Topo, scenarios.TEThreshold, 0)
				app.UseBarriers = true
			}
			cfg.App = spy{app, p}
			cfg.StopAtFirstViolation = false
			seen := p.calls
			report, _ := core.Job{EngineOptions: core.EngineOptions{Workers: 1}}.Run(context.Background(), cfg, nil)
			if !report.Complete || p.calls == seen {
				t.Errorf("%s/%s: complete %t (%s), %d keys rendered", name, strategy,
					report.Complete, report.StopReason, p.calls-seen)
			}
		}
	}
	if !p.pending || len(p.toNew) < 10 {
		t.Errorf("%d distinct application states, pending seen %t", len(p.toNew), p.pending)
	}
	t.Logf("%d keys rendered, %d distinct application states", p.calls, len(p.toNew))
}
