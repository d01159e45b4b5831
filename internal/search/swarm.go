package search

import (
	"context"
	"math/rand"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// SwarmEngine returns the parallel seeded random-walk swarm as a
// core.Engine: EngineOptions' Seed/Walks/Steps size the swarm and
// Workers sizes the pool.
func SwarmEngine() core.Engine { return randomWalk{name: "swarm"} }

// Walks returns the sequential random-walk engine (§1.3's "random walks
// on system states"): the swarm's loop pinned to one worker, so walk i
// draws from rand seed Seed+i exactly as it would in a swarm.
func Walks() core.Engine { return randomWalk{name: "walks", workers: 1} }

// randomWalk scales the paper's random-walk mode (§1.3) across a worker
// pool: Walks independent walks of at most Steps transitions,
// distributed round-robin over the workers. Walk i is always driven by
// rand seed Seed+i, so when state identity is schedule-independent
// (symbolic execution off, or discover caches warmed) the set of walks
// — and the violations reachable by any of them — is identical for
// every worker count; only wall-clock time changes. Cold SE-enabled
// walks share the discover caches, whose fill order shifts each walk's
// enabled-transition sets, so their trajectories can vary with
// scheduling. The workers share the striped seen-set (UniqueStates
// counts distinct hashes across the whole swarm; there is no revisit,
// truncation or frontier accounting in this mode) and all stop at the
// first violation when the config asks.
type randomWalk struct {
	name    string
	workers int // pinned pool size; 0 = EngineOptions.Workers
}

func (e randomWalk) Name() string { return e.name }

func (e randomWalk) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	workers := e.workers
	if workers == 0 {
		workers = eo.WorkerCount()
	}
	walks, steps := eo.WalkCount(), eo.StepBound()
	s := core.Begin(ctx, e.name, cfg, eo, nil)
	seen := newSeenSet(seenShards)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer s.Guard()
			var sc scratch
			for i := w; i < walks && !s.Stopped(); i += workers {
				walk(s, seen, &sc, eo.Seed+int64(i), steps)
			}
		}(w)
	}
	wg.Wait()
	s.Tel().SetShardOccupancy(seen.occupancy())
	return s.End(ctx)
}

// walk is one seeded random execution from the initial state.
func walk(s *core.Session, seen *seenSet, sc *scratch, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	sys := s.NewSystem()
	var trace []core.Transition
	for step := 0; step < steps; step++ {
		if s.Stopped() {
			return
		}
		if seen.Add(sys.Fingerprint()) {
			s.Admit(len(trace))
		}
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			for _, f := range sys.CheckQuiescence() {
				s.Record(core.Violation{Property: f.Property, Err: f.Err,
					Trace: cloneTrace(trace), Quiescence: true})
			}
			return
		}
		t := enabled[rng.Intn(len(enabled))]
		if !s.Reserve() {
			return
		}
		sc.events = sys.ApplyInto(t, sc.events)
		trace = append(trace, t)
		violated := false
		for _, f := range sys.CheckEvents(sc.events) {
			s.Record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: cloneTrace(trace)})
			violated = true
		}
		if violated {
			return
		}
	}
}

func cloneTrace(trace []core.Transition) []core.Transition {
	return append([]core.Transition(nil), trace...)
}
