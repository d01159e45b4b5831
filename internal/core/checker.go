package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/nice-go/nice/internal/canon"
)

// Violation is one property failure: what failed, why, and the
// transition sequence that deterministically reproduces it from the
// initial state (the paper's output: "property violations along with the
// traces to deterministically reproduce them", §1.3).
type Violation struct {
	Property string
	Err      error
	Trace    []Transition
	// Quiescence marks violations detected at an execution's end state
	// rather than on a transition.
	Quiescence bool
}

func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation of %s: %v\n", v.Property, v.Err)
	if v.Quiescence {
		b.WriteString("(detected at quiescence)\n")
	}
	b.WriteString("trace:\n")
	for i, t := range v.Trace {
		fmt.Fprintf(&b, "  %2d. %s\n", i+1, t.Key())
	}
	return b.String()
}

// Report summarizes one search.
type Report struct {
	// Transitions counts executed transitions (edges explored).
	Transitions int64
	// UniqueStates counts distinct state hashes reached.
	UniqueStates int64
	// Revisits counts arrivals at an already-explored state.
	Revisits int64
	// Truncated counts paths cut off by the depth bound.
	Truncated int64
	// SERuns counts concolic explorations (discover transitions that
	// missed the cache).
	SERuns int64
	// PacketClasses counts the packet/stats equivalence classes the
	// discover cache holds when the search ends (cumulative across runs
	// sharing one Caches, like SERuns).
	PacketClasses int64
	// FeedbackRounds counts model-checking → symbolic-execution
	// feedback rounds: controller states whose novelty enqueued fresh
	// symbolic targets. Only the concolic loop sets it.
	FeedbackRounds int64
	// Violations lists the property failures found, under every engine
	// deduplicated by property + error text (keeping the shortest trace
	// seen) and sorted by property, then error text.
	Violations []Violation
	// Elapsed is wall-clock search time.
	Elapsed time.Duration
	// Complete is false when a budget (MaxTransitions, MaxStates, a
	// deadline) or cancellation aborted the search. A report that
	// stopped at the first violation still counts as complete.
	Complete bool
	// Strategy names the engine that produced the report ("dfs",
	// "parallel", "walks", "swarm", "concolic").
	Strategy string
	// StopReason records why the search ended early; empty when the
	// bounded state space was exhausted. Partial (aborted) reports are
	// still replayable: every recorded trace reproduces
	// deterministically from the initial state.
	StopReason StopReason
}

// FirstViolation returns the first recorded violation, or nil.
func (r *Report) FirstViolation() *Violation {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// Checker runs state-space searches over a Config.
type Checker struct {
	cfg    *Config
	caches *Caches

	explored map[canon.Digest]bool
	// s is the search in flight (set by RunContext): counters, budgets,
	// stop control, violations and streaming.
	s *Session

	// eventBuf is the reused per-transition event batch: events are
	// dead once the property checks ran (nothing retains the slice),
	// so the whole search shares one growing buffer.
	eventBuf []Event
	// transBufs are per-depth enabled-transition buffers: a frame's
	// enabled set is live across its recursive calls, but siblings at
	// the same depth can reuse one buffer.
	transBufs [][]Transition
	// trace is the DFS path stack: one mutable slice pushed/popped per
	// frame. Violations snapshot it (cloneTrace) — copying the whole
	// prefix per explored transition was nearly half of all bytes the
	// search allocated.
	trace []Transition

	// Reduction-layer state (dpor.go, dpor_dfs.go), populated only when
	// EngineOptions.Reduction selects DPOR; the vanilla dfs() hot path
	// never touches it.
	space        *componentSpace
	dporExplored map[canon.Digest]dporNode
	sums         runStore[sumEntry]
	sleeps       runStore[uint64]
	fpt          fpTable
	globalFp     uint32
	dporTel      *DporTelemetry
	dporFrames   []dporFrame
	frameTop     int
	hostSwBuf    []int
	keyBuf       []uint64
	hbScratch    idxSet
	// runBuf builds the run storeSummary stores — a summary's entries,
	// then its residual entry; a re-expansion merges its summary in
	// place there first.
	runBuf [dporSummaryCap + 1]sumEntry
}

// NewChecker prepares a search.
func NewChecker(cfg *Config) *Checker {
	return &Checker{cfg: cfg, caches: NewCaches()}
}

// NewCheckerWith prepares a search against a caller-supplied
// discover-cache set (shared with a parallel engine or a prior run).
func NewCheckerWith(cfg *Config, cc *Caches) *Checker {
	return &Checker{cfg: cfg, caches: cc}
}

// Caches exposes the checker's discover caches for sharing.
func (c *Checker) Caches() *Caches { return c.caches }

// Run performs the full depth-first search from the initial state and
// returns the report. It follows Figure 5 of the paper: explore enabled
// transitions, hash-match states, arm discover transitions, check
// properties after every transition and at quiescent states.
func (c *Checker) Run() *Report {
	return c.RunContext(context.Background(), EngineOptions{})
}

// RunContext is Run with runtime controls: it honors context
// cancellation (and deadlines) and the EngineOptions budgets, streams
// violations and progress to the options' Observer, and on abort
// returns a partial report whose traces still replay deterministically.
// The search runs against the checker's own cache set (a fresh one when
// it has none), whatever opts.Caches says.
func (c *Checker) RunContext(ctx context.Context, opts EngineOptions) *Report {
	opts.Caches = c.caches
	c.s = Begin(ctx, "dfs", c.cfg, opts, nil)
	// The search runs on this goroutine, so a panicking App or Property
	// unwinds through here with its own stack; only the session's
	// goroutines need stopping on the way out.
	defer c.s.Close()

	c.explored = make(map[canon.Digest]bool)
	c.trace = c.trace[:0]
	root := c.s.NewSystem()
	if opts.Reduction == ReductionDPOR {
		c.dporRun(root, opts.Telemetry)
	} else {
		c.dfs(root)
	}
	return c.s.End(ctx)
}

func (c *Checker) dfs(sys *System) {
	s := c.s
	if s.Stopped() {
		return
	}
	h := sys.Fingerprint()
	if c.explored[h] {
		s.Revisits.Add(1)
		return
	}
	c.explored[h] = true
	depth := len(c.trace)
	s.Admit(depth)

	enabled := c.enabledAt(sys, depth)
	if len(enabled) == 0 {
		for _, f := range sys.CheckQuiescence() {
			s.Record(Violation{Property: f.Property, Err: f.Err,
				Trace: cloneTrace(c.trace), Quiescence: true})
			if s.Stopped() {
				return
			}
		}
		return
	}
	if depth >= c.cfg.maxDepth() {
		s.Truncated.Add(1)
		return
	}

	for _, t := range enabled {
		if s.Stopped() || !s.Reserve() {
			return
		}
		child := sys.Clone()
		events := child.ApplyInto(t, c.eventBuf)
		c.eventBuf = events
		c.trace = append(c.trace, t)

		violated := false
		for _, f := range child.CheckEvents(events) {
			s.Record(Violation{Property: f.Property, Err: f.Err,
				Trace: cloneTrace(c.trace)})
			violated = true
		}
		if violated {
			// The paper's checker saves the error and trace and does
			// not explore past a violating state.
			child.Release()
		} else {
			c.dfs(child)
			child.Release()
		}
		c.trace = c.trace[:len(c.trace)-1]
	}
}

// enabledAt enumerates sys's enabled transitions into the per-depth
// buffer: a frame's transitions stay valid while deeper frames run.
func (c *Checker) enabledAt(sys *System, depth int) []Transition {
	for len(c.transBufs) <= depth {
		c.transBufs = append(c.transBufs, nil)
	}
	enabled := sys.EnabledInto(c.transBufs[depth])
	c.transBufs[depth] = enabled[:0]
	return enabled
}

func cloneTrace(trace []Transition) []Transition {
	return append([]Transition(nil), trace...)
}

// Replay re-executes a recorded trace from a fresh initial state,
// returning the final system and the events of the last transition.
// Determinism of the components guarantees the same states arise (§6);
// tests assert this by comparing hashes.
func (c *Checker) Replay(trace []Transition) (*System, []Event) {
	sys := NewSystemWith(c.cfg, c.caches)
	var last []Event
	for _, t := range trace {
		last = sys.Apply(t)
	}
	return sys, last
}

// ReplayWithProperties re-executes a trace while feeding property
// observers, returning the violation reproduced by the final transition
// (or at quiescence), if any.
func (c *Checker) ReplayWithProperties(trace []Transition) (*System, *Violation) {
	sys := NewSystemWith(c.cfg, c.caches)
	for i, t := range trace {
		events := sys.Apply(t)
		if fails := sys.CheckEvents(events); len(fails) > 0 {
			return sys, &Violation{Property: fails[0].Property, Err: fails[0].Err,
				Trace: cloneTrace(trace[:i+1])}
		}
	}
	if sys.Quiescent() {
		if fails := sys.CheckQuiescence(); len(fails) > 0 {
			return sys, &Violation{Property: fails[0].Property, Err: fails[0].Err,
				Trace: cloneTrace(trace), Quiescence: true}
		}
	}
	return sys, nil
}
