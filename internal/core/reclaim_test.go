// Reclaim and takeover soundness. The sequential DFS lends a state one
// fork per enabled transition but the last, gives the state its epoch
// back once each fork's subtree is released, and applies the last
// transition to the state itself; the parallel engines take a state
// over for its last transition while the forks of its siblings are
// still live. These walks do both along seeded paths and check every
// state they make against a replay of its trace from the initial state.
package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// reclaimWalk is one seeded walk and the configuration whose replays
// its states are held to, on the walk's own caches, so discover-cache
// presence agrees. A replay never forks, so the reference shares no
// copy-on-write state with the walk.
type reclaimWalk struct {
	t      *testing.T
	rng    *rand.Rand
	cfg    *core.Config
	caches *core.Caches
}

func walkReclaim(t *testing.T, scenario string, seed int64, steps int) {
	t.Helper()
	sc, ok := scenarios.Lookup(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	cfg := sc.Config(0)
	cfg.StopAtFirstViolation = false
	caches := core.NewCaches()
	w := &reclaimWalk{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, caches: caches}

	sys := core.NewSystemWith(cfg, caches)
	var trace []core.Transition
	for step := 0; step < steps; step++ {
		// Arm every discover cache this state's identity reads, taking
		// its enabled discover transitions on lent forks first
		// (walkCloneIndependence says why): then nothing a subtree
		// discovers changes this state's identity, and any change below
		// is a write through state a fork shared.
		for _, tr := range sys.Enabled() {
			if tr.Kind == core.THostDiscover || tr.Kind == core.TCtrlDiscoverStats {
				fork, epoch := sys.Lend()
				fork.Apply(tr)
				w.check(fork, with(trace, tr))
				sys.Reclaim(fork, epoch)
			}
		}
		sys.ArmDiscover()
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			return
		}
		// The walk goes on through the last transition, so a shuffle
		// makes the path random.
		w.rng.Shuffle(len(enabled), func(i, j int) { enabled[i], enabled[j] = enabled[j], enabled[i] })
		fp, oracle := sys.Fingerprint(), sys.OracleKey()
		last := len(enabled) - 1
		for _, tr := range enabled[:last] {
			fork, epoch := sys.Lend()
			fork.Apply(tr)
			w.drive(fork, with(trace, tr), w.rng.Intn(4))
			sys.Reclaim(fork, epoch)
			if got := sys.Fingerprint(); got != fp {
				t.Fatalf("step %d: fingerprint changed after reclaiming the fork for %s", step, tr.Key())
			}
			if got := sys.OracleKey(); got != oracle {
				t.Fatalf("step %d: oracle key changed after reclaiming the fork for %s:\n was: %s\n now: %s",
					step, tr.Key(), oracle, got)
			}
			if err := sys.VerifyCaches(); err != nil {
				t.Fatalf("step %d: caches stale after reclaiming the fork for %s: %v", step, tr.Key(), err)
			}
			// Reuse: Reclaim recycled the shells, channel maps and props
			// backing the fork made, so a second fork's first writes take
			// them. It and the parent must still match their replays.
			again := enabled[w.rng.Intn(len(enabled))]
			fork, epoch = sys.Lend()
			fork.Apply(again)
			w.drive(fork, with(trace, again), w.rng.Intn(3))
			w.check(sys, trace)
			sys.Reclaim(fork, epoch)
		}
		sys.Apply(enabled[last])
		trace = append(trace, enabled[last])
		w.check(sys, trace)
	}
}

// drive checks sys and takes it a random subtree depth levels deep the
// way the parallel engine expands a state: fork a sibling, take sys
// over for another transition while the sibling lives, then go on with
// both. A takeover that writes state the sibling shares shows up in the
// sibling's check.
func (w *reclaimWalk) drive(sys *core.System, trace []core.Transition, depth int) {
	w.check(sys, trace)
	enabled := sys.Enabled()
	if depth == 0 || len(enabled) == 0 {
		return
	}
	a, b := enabled[w.rng.Intn(len(enabled))], enabled[w.rng.Intn(len(enabled))]
	sib := sys.Clone()
	sib.Apply(a)
	sys.Apply(b)
	w.drive(sib, with(trace, a), depth-1)
	sib.Release()
	w.drive(sys, with(trace, b), depth-1)
}

// check holds sys to its trace replayed from the initial state and to
// its own caches.
func (w *reclaimWalk) check(sys *core.System, trace []core.Transition) {
	w.t.Helper()
	fp, oracle := sys.Fingerprint(), sys.OracleKey()
	want := core.NewSystemWith(w.cfg, w.caches)
	for _, tr := range trace {
		want.Apply(tr)
	}
	if want.Fingerprint() != fp || want.OracleKey() != oracle {
		last := "none"
		if len(trace) > 0 {
			last = trace[len(trace)-1].Key()
		}
		w.t.Fatalf("state after %d transitions differs from its replay (last %s):\n got: %s\nwant: %s",
			len(trace), last, oracle, want.OracleKey())
	}
	if err := sys.VerifyCaches(); err != nil {
		w.t.Fatalf("caches stale after %d transitions: %v", len(trace), err)
	}
}

// with returns trace+t in a new array, leaving trace's own untouched.
func with(trace []core.Transition, t core.Transition) []core.Transition {
	return append(slices.Clip(trace), t)
}

func TestReclaimWalk(t *testing.T) {
	for _, name := range cowScenarios {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7, 2026} {
				walkReclaim(t, name, seed, 40)
			}
		})
	}
}

// FuzzReclaim lets the fuzzer pick the scenario, seed and walk length.
func FuzzReclaim(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20))
	f.Add(int64(7), uint8(1), uint8(30))
	f.Add(int64(42), uint8(2), uint8(15))
	f.Add(int64(99), uint8(3), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, which, steps uint8) {
		walkReclaim(t, cowScenarios[int(which)%len(cowScenarios)], seed, int(steps)%30+5)
	})
}
