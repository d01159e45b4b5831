package scenarios

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/props"
	"github.com/nice-go/nice/topo"
)

// TestViolationTracesReplay: every bug's recorded trace, replayed from a
// fresh initial state with fresh property instances, reproduces the same
// violation — the paper's "traces to deterministically reproduce them".
func TestViolationTracesReplay(t *testing.T) {
	for _, sc := range Table2() {
		sc := sc
		t.Run(strings.ToUpper(sc.Name), func(t *testing.T) {
			t.Parallel()
			report := dfs(sc.Config(0))
			v := report.FirstViolation()
			if v == nil {
				t.Fatalf("%s not found", sc.Name)
			}
			reproduced := core.ReplayWithProperties(sc.Config(0), core.NewCaches(), v.Trace)
			if reproduced == nil {
				t.Fatalf("replay of %s's trace reproduced nothing", sc.Name)
			}
			if reproduced.Property != v.Property {
				t.Fatalf("replay violated %s, original %s", reproduced.Property, v.Property)
			}
		})
	}
}

// TestBugIFixedRecovers drives the BUG-I scenario against the fixed
// pyswitch with flow timeouts enabled: after B moves and the stale rule
// hard-expires, A's traffic floods and reaches B's new location. This is
// the paper's point that the hard-timeout "fix" restores reachability
// while still allowing transient loss (§8.1).
func TestBugIFixedRecovers(t *testing.T) {
	cfg := MustLookup("bug-i").FixedConfig(0)
	cfg.EnableTimers = true
	cfg.EnablePortStatus = true
	cfg.Properties = nil // strict NoBlackHoles would flag the transient loss
	cfg.Hosts[0].SendBudget = 3

	sim := core.NewSimulator(cfg)
	step := func(pred func(tr core.Transition) bool, what string) {
		t.Helper()
		for i, tr := range sim.Enabled() {
			if pred(tr) {
				if _, _, err := sim.Step(i); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("no enabled transition for %s; have %v", what, sim.Enabled())
	}
	kind := func(k core.TransitionKind) func(core.Transition) bool {
		return func(tr core.Transition) bool { return tr.Kind == k }
	}
	pingToB := func(tr core.Transition) bool {
		return tr.Kind == core.THostSend &&
			tr.Hdr.EthSrc == topo.MACHostA && tr.Hdr.EthDst == topo.MACHostB
	}
	drain := func() {
		for {
			moved := false
			for i, tr := range sim.Enabled() {
				switch tr.Kind {
				case core.TSwitchProcess, core.TSwitchOF, core.TCtrlDispatch, core.THostReply:
					if _, _, err := sim.Step(i); err != nil {
						t.Fatal(err)
					}
					moved = true
				}
				if moved {
					break
				}
			}
			if !moved {
				return
			}
		}
	}

	// Ping 1: flood, learn; pong: installs rules with hard timeouts.
	step(kind(core.THostDiscover), "discover")
	step(pingToB, "ping1")
	drain()
	// Ping 2: direct path to B at port 2.
	if len(sim.Enabled()) > 0 && sim.Enabled()[0].Kind == core.THostDiscover {
		step(kind(core.THostDiscover), "rediscover")
	}
	step(pingToB, "ping2")
	drain()
	bBefore := len(sim.System().Host(2).Received)

	// B moves to port 3; the stale rule still points at port 2.
	step(kind(core.THostMove), "move")
	// Expire the learned rules (hard timeout = 3 ticks).
	for i := 0; i < 3; i++ {
		step(kind(core.TSwitchTick), "tick")
	}
	if sim.System().Switch(1).Table.Len() != 0 {
		t.Fatalf("rules survived the hard timeout:\n%s", sim.System().Switch(1).Table.String())
	}

	// Ping 3 floods (no rules left) and reaches B's new location.
	if len(sim.Enabled()) > 0 && sim.Enabled()[0].Kind == core.THostDiscover {
		step(kind(core.THostDiscover), "rediscover2")
	}
	step(pingToB, "ping3")
	drain()
	if got := len(sim.System().Host(2).Received); got <= bBefore {
		t.Fatalf("B received %d packets after moving, had %d before — no recovery", got, bBefore)
	}
}

// TestBugIBuggyBlackholesAfterMove is the directed counterpart: with the
// published pyswitch, after B moves the installed rule forwards A's
// traffic into the vacated port.
func TestBugIBuggyBlackholesAfterMove(t *testing.T) {
	cfg := MustLookup("bug-i").Config(0)
	report := dfs(cfg)
	v := report.FirstViolation()
	if v == nil {
		t.Fatal("BUG-I not found")
	}
	sawMove := false
	for _, tr := range v.Trace {
		if tr.Kind == core.THostMove {
			sawMove = true
		}
	}
	if !sawMove {
		t.Errorf("violating trace has no move transition:\n%s", v)
	}
}

// TestFixedAppsUnderFaults: the repaired pyswitch stays clean for
// NoForgottenPackets even when the environment may drop, duplicate and
// reorder packets (§2.2.2's optional channel fault model). Packet loss
// is the environment's doing; forgotten buffers would still be the
// controller's.
func TestFixedAppsUnderFaults(t *testing.T) {
	cfg := MustLookup("bug-ii").FixedConfig(0)
	cfg.Properties = []core.Property{props.NewNoForgottenPackets()}
	cfg.Faults = core.FaultModel{MaxDrops: 1, MaxDuplicates: 1, MaxReorders: 1}
	report := dfs(cfg)
	if v := report.FirstViolation(); v != nil {
		t.Fatalf("fixed pyswitch forgets packets under faults: %v\n%s", v.Err, v)
	}
	base := dfs(MustLookup("bug-ii").FixedConfig(0))
	if report.UniqueStates <= base.UniqueStates {
		t.Errorf("fault model explored no extra states: %d vs %d",
			report.UniqueStates, base.UniqueStates)
	}
	t.Logf("faulty environment: %d states (vs %d without faults), still clean",
		report.UniqueStates, base.UniqueStates)
}

// TestFigure6Shape: NO-DELAY and FLOW-IR shrink the exhaustively
// explored transition count relative to plain NICE-MC on the ping
// workload (Figure 6's relative-reduction series).
func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive searches are slow")
	}
	ping := MustLookup("pingpong")
	for pings := 2; pings <= 3; pings++ {
		base := dfs(ping.Config(pings))
		noDelay := dfs(ping.Apply(ping.Config(pings), NoDelay))
		flowIR := dfs(ping.Apply(ping.Config(pings), FlowIR))

		t.Logf("pings=%d: NICE-MC=%d trans, NO-DELAY=%d (%.2fx), FLOW-IR=%d (%.2fx)",
			pings, base.Transitions,
			noDelay.Transitions, float64(base.Transitions)/float64(noDelay.Transitions),
			flowIR.Transitions, float64(base.Transitions)/float64(flowIR.Transitions))
		if noDelay.Transitions >= base.Transitions {
			t.Errorf("pings=%d: NO-DELAY did not reduce transitions", pings)
		}
		if flowIR.Transitions > base.Transitions {
			t.Errorf("pings=%d: FLOW-IR grew the transition count", pings)
		}
	}
}
