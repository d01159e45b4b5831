// Package reftest is the reference explorer the test suites hold the
// engines to. It imports nothing but internal/core's exported API and
// no production package imports it.
package reftest

import (
	"fmt"
	"slices"

	"github.com/nice-go/nice/internal/core"
)

// Summary is what the reference explorer and an engine must agree on:
// unique states, transitions, revisits, truncated paths and the sorted,
// distinct property|error violation keys.
func Summary(r *core.Report) string {
	var keys []string
	for _, v := range r.Violations {
		keys = append(keys, v.Property+"|"+v.Err.Error())
	}
	slices.Sort(keys)
	return fmt.Sprintf("%d states, %d transitions, %d revisits, %d truncated, violations %q",
		r.UniqueStates, r.Transitions, r.Revisits, r.Truncated, slices.Compact(keys))
}

// Explore is the reference explorer: a breadth-first search written
// with none of what the engines optimise. A state is named by its
// OracleKey string and built by replaying its trace from the initial
// state, feeding the properties on the way (a state's last successor
// is the state's own replay, one step on) — so no Clone, copy-on-write
// fork, Fingerprint, seen-set, lend or reclaim takes part. It applies
// the engines' rules in their plainest form: properties are checked
// after every transition and at dead ends, a violating transition is
// recorded and its child not admitted, and a path stops at the depth
// bound.
func Explore(cfg *core.Config, cc *core.Caches) *core.Report {
	// A state is its last transition and its parent's node. Until it is
	// expanded, sys holds its replay and enabled its transitions.
	type node struct {
		parent  *node
		t       core.Transition
		depth   int
		sys     *core.System
		enabled []core.Transition
	}
	var events []core.Event
	step := func(sys *core.System, t core.Transition) []core.PropertyFailure {
		events = sys.ApplyInto(t, events)
		return sys.CheckEvents(events)
	}
	var replay func(n *node) (*core.System, []core.PropertyFailure)
	replay = func(n *node) (*core.System, []core.PropertyFailure) {
		if n.parent == nil {
			return core.NewSystemWith(cfg, cc), nil
		}
		sys, _ := replay(n.parent)
		return sys, step(sys, n.t)
	}
	r := &core.Report{}
	record := func(fails []core.PropertyFailure) {
		for _, f := range fails {
			r.Violations = append(r.Violations, core.Violation{Property: f.Property, Err: f.Err})
		}
	}
	var queue []*node
	// admit counts a new state, reached as n, and queues it for
	// expansion unless it is a dead end or at the depth bound.
	admit := func(n *node, sys *core.System) {
		r.UniqueStates++
		n.sys, n.enabled = sys, sys.Enabled()
		switch {
		case len(n.enabled) == 0:
			record(sys.CheckQuiescence())
		case n.depth >= cfg.DepthBound():
			r.Truncated++
		default:
			queue = append(queue, n)
		}
	}
	root := &node{}
	sys, _ := replay(root)
	seen := map[string]bool{sys.OracleKey(): true}
	admit(root, sys)
	for ; len(queue) > 0; queue = queue[1:] {
		n := queue[0]
		for i, t := range n.enabled {
			next := &node{parent: n, t: t, depth: n.depth + 1}
			var child *core.System
			var fails []core.PropertyFailure
			if i < len(n.enabled)-1 {
				child, fails = replay(next)
			} else {
				child, fails = n.sys, step(n.sys, t)
			}
			r.Transitions++
			if len(fails) > 0 {
				record(fails)
				continue
			}
			if key := child.OracleKey(); seen[key] {
				r.Revisits++
			} else {
				seen[key] = true
				admit(next, child)
			}
		}
		n.sys, n.enabled = nil, nil
	}
	return r
}
