package core

import (
	"fmt"
	"strings"
	"time"
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
	// feedback rounds: states whose novel (controller state, host,
	// location) triples enqueued fresh symbolic targets. Only the
	// concolic loop sets it.
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

func cloneTrace(trace []Transition) []Transition {
	return append([]Transition(nil), trace...)
}

// ReplayWithProperties re-executes a recorded trace from cfg's initial
// state on the discover caches cc, feeding property observers, and
// returns the violation reproduced by the final transition (or at
// quiescence), if any. Determinism of the components guarantees the
// same states arise (§6).
func ReplayWithProperties(cfg *Config, cc *Caches, trace []Transition) *Violation {
	sys := NewSystemWith(cfg, cc)
	for i, t := range trace {
		if v := firstFailure(sys.CheckEvents(sys.Apply(t)), trace[:i+1]); v != nil {
			return v
		}
	}
	if sys.Quiescent() {
		return firstFailure(sys.CheckQuiescence(), trace)
	}
	return nil
}

// firstFailure returns the first of a check's fails, traced by a copy
// of trace, or nil: the replay's and the Simulator's one rule.
func firstFailure(fails []Violation, trace []Transition) *Violation {
	if len(fails) == 0 {
		return nil
	}
	v := fails[0]
	v.Trace = cloneTrace(trace)
	return &v
}
