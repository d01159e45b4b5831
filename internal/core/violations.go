package core

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"github.com/nice-go/nice/internal/canon"
)

// violationSet is the one violation-merging rule every engine shares: a
// violation is a fact of the model, so the set a full search reports
// must not depend on which engine, worker or schedule found it.
//
//   - Violations are deduplicated by property + error text. A later
//     trace replaces the kept one only when it is strictly shorter; the
//     kept trace always replays deterministically, but its exact length
//     may vary run to run — which path first reaches a violating state
//     is scheduling-dependent under the concurrent engines.
//   - list sorts by property, then error text, and drops entries that
//     share a property and a trace with an earlier one: workers (or
//     swarm walks) that race to the same violating execution, possibly
//     wording the error differently, report it once.
//
// Nothing is rendered on either path. A full search records the same
// key thousands of times (2 262 records for 422 keys on the load
// balancer), so add compares lengths only and copies a trace only to
// store it, and list identifies traces by a word-wise fold of their
// transitions' identities instead of their canonical rendering.
type violationSet struct {
	mu sync.Mutex
	m  map[violationKey]Violation
}

// violationKey is a violation's identity: property and error text.
type violationKey struct{ property, err string }

// add records a violation and returns it as held, with whether its key
// was new — the signal to count and stream it exactly once. The caller
// may reuse v.Trace once add returns.
func (s *violationSet) add(v Violation) (Violation, bool) {
	key := violationKey{v.Property, v.Err.Error()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[violationKey]Violation)
	}
	prev, ok := s.m[key]
	if ok && len(v.Trace) >= len(prev.Trace) {
		return prev, false
	}
	v.Trace = cloneTrace(v.Trace)
	s.m[key] = v
	return v, !ok
}

// list returns the merged set in its deterministic order.
func (s *violationSet) list() []Violation {
	type entry struct {
		errText string // the key's error half, so sorting never formats an error
		v       Violation
	}
	s.mu.Lock()
	all := make([]entry, 0, len(s.m))
	for key, v := range s.m {
		all = append(all, entry{key.err, v})
	}
	s.mu.Unlock()
	slices.SortFunc(all, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.v.Property, b.v.Property),
			strings.Compare(a.errText, b.errText))
	})
	type traceID struct {
		property string
		fold     uint64
	}
	seen := make(map[traceID]bool, len(all))
	out := make([]Violation, 0, len(all))
	for _, e := range all {
		id := traceID{e.v.Property, traceFold(e.v.Trace)}
		if !seen[id] {
			seen[id] = true
			out = append(out, e.v)
		}
	}
	return out
}

// traceFold is a trace's in-memory identity: transIdentity folded over
// its transitions, allocation-free.
func traceFold(trace []Transition) uint64 {
	m := canon.NewMix(uint64(len(trace)))
	for i := range trace {
		m = m.Word(transIdentity(&trace[i]).Sum())
	}
	return m.Sum()
}

// TraceFingerprint hashes a trace's canonical rendering to a 64-bit
// identity — the wire form of "the same violating execution" that
// service artifacts carry and `nice replay` checks.
func TraceFingerprint(trace []Transition) uint64 {
	var sb strings.Builder
	for _, t := range trace {
		sb.WriteString(t.Key())
		sb.WriteByte('\n')
	}
	return canon.Hash64String(sb.String())
}
